#!/usr/bin/env python3
"""Schema validator for the pss observability artifacts.

Validates any of the files the instrumented binaries emit:

  pss.metrics.v1    (pss_run metrics=..., bench BENCH_*.json records;
                     serve runs — label "pss_serve" or any serve.* counter —
                     additionally get the serving-daemon accounting checks)
  pss.manifest.v1   (pss_run manifest=...)
  Chrome trace      (pss_run trace=..., detected by "traceEvents")
  Prometheus text   (pss_run prom=... / metrics_port= scrapes; detected by
                     failing JSON parse with '# TYPE' lines present)

Usage:
  tools/validate_manifest.py FILE [FILE...]

Exits non-zero (and prints the reason) on the first invalid file. Pure
stdlib — no third-party dependencies.
"""

from __future__ import annotations

import json
import math
import re
import sys


def fail(path: str, message: str) -> None:
    print(f"validate_manifest: {path}: {message}", file=sys.stderr)
    sys.exit(1)


def expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        fail(path, message)


def is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_metrics_object(m: dict, path: str, where: str) -> None:
    expect(isinstance(m, dict), path, f"{where}: must be an object")
    for section in ("counters", "gauges", "histograms"):
        expect(section in m, path, f"{where}: missing '{section}'")
    counters = m["counters"]
    expect(isinstance(counters, dict), path, f"{where}.counters: not an object")
    for name, value in counters.items():
        expect(isinstance(value, int) and value >= 0, path,
               f"{where}.counters[{name}]: not a non-negative integer")
    gauges = m["gauges"]
    expect(isinstance(gauges, dict), path, f"{where}.gauges: not an object")
    for name, value in gauges.items():
        expect(value is None or is_num(value), path,
               f"{where}.gauges[{name}]: not a number")
    hists = m["histograms"]
    expect(isinstance(hists, dict), path, f"{where}.histograms: not an object")
    for name, h in hists.items():
        ctx = f"{where}.histograms[{name}]"
        expect(isinstance(h, dict), path, f"{ctx}: not an object")
        for key in ("upper_edges", "counts", "total", "sum"):
            expect(key in h, path, f"{ctx}: missing '{key}'")
        edges = h["upper_edges"]
        counts = h["counts"]
        expect(isinstance(edges, list) and len(edges) >= 1, path,
               f"{ctx}.upper_edges: need at least one edge")
        expect(all(is_num(e) for e in edges), path,
               f"{ctx}.upper_edges: non-numeric edge")
        expect(all(b < a for b, a in zip(edges, edges[1:])), path,
               f"{ctx}.upper_edges: not strictly increasing")
        expect(isinstance(counts, list) and len(counts) == len(edges) + 1,
               path, f"{ctx}.counts: expected {len(edges) + 1} buckets "
               "(edges + overflow)")
        expect(all(isinstance(c, int) and c >= 0 for c in counts), path,
               f"{ctx}.counts: non-count entry")
        expect(h["total"] == sum(counts), path,
               f"{ctx}: total {h['total']} != sum of buckets {sum(counts)}")


def validate_metrics(doc: dict, path: str) -> None:
    expect(doc.get("schema") == "pss.metrics.v1", path,
           f"schema is {doc.get('schema')!r}, expected 'pss.metrics.v1'")
    expect("metrics" in doc, path, "missing 'metrics'")
    validate_metrics_object(doc["metrics"], path, "metrics")
    counters = doc["metrics"].get("counters", {})
    if doc.get("label") == "pss_serve" or \
            any(name.startswith("serve.") for name in counters):
        validate_serve_metrics(doc["metrics"], path)
    if any(name.startswith("graph.") for name in counters):
        validate_graph_metrics(doc["metrics"], path)


# Counter families the serving daemon always registers (src/pss/serve/):
# a serve sidecar missing one of these was written by a partial or torn run.
_SERVE_COUNTERS = (
    "serve.admitted", "serve.completed", "serve.shed", "serve.expired",
    "serve.requeue", "serve.faults", "serve.worker_restarts",
    "serve.reloads", "serve.batches",
)
_SERVE_HISTOGRAMS = ("serve.latency_seconds", "serve.batch_size")


def validate_serve_metrics(m: dict, path: str) -> None:
    """Serving-daemon sidecar (pss_serve metrics= dumps, BENCH_serve.json):
    every serve.* family must be present, and the request accounting must
    balance — a request is answered (completed), expired, or still queued,
    never silently dropped."""
    counters = m["counters"]
    for name in _SERVE_COUNTERS:
        expect(name in counters, path,
               f"serve sidecar: missing counter '{name}'")
    hists = m["histograms"]
    for name in _SERVE_HISTOGRAMS:
        expect(name in hists, path,
               f"serve sidecar: missing histogram '{name}'")
    admitted = counters["serve.admitted"]
    completed = counters["serve.completed"]
    expired = counters["serve.expired"]
    expect(completed + expired <= admitted, path,
           f"serve sidecar: completed ({completed}) + expired ({expired}) "
           f"exceeds admitted ({admitted})")
    # Latency is observed exactly once per completed request, before the
    # response becomes visible (the serve metrics-ordering invariant).
    latency_total = hists["serve.latency_seconds"]["total"]
    expect(latency_total == completed, path,
           f"serve sidecar: latency histogram total ({latency_total}) != "
           f"completed ({completed})")
    # Batches are what workers executed; an executed batch holds >= 1 request.
    batch_total = hists["serve.batch_size"]["total"]
    expect(batch_total == counters["serve.batches"], path,
           f"serve sidecar: batch_size histogram total ({batch_total}) != "
           f"serve.batches ({counters['serve.batches']})")


def validate_manifest(doc: dict, path: str) -> None:
    expect(doc.get("schema") == "pss.manifest.v1", path,
           f"schema is {doc.get('schema')!r}, expected 'pss.manifest.v1'")
    for key in ("tool", "dataset"):
        expect(isinstance(doc.get(key), str), path, f"'{key}': not a string")
    for key in ("seed", "workers", "batch_size"):
        expect(isinstance(doc.get(key), int), path, f"'{key}': not an integer")
    expect(is_num(doc.get("wall_seconds")) and doc["wall_seconds"] >= 0, path,
           "'wall_seconds': not a non-negative number")
    expect(isinstance(doc.get("config"), dict), path, "'config': not an object")

    phases = doc.get("phases")
    expect(isinstance(phases, dict), path, "'phases': not an object")
    phase_total = 0.0
    for name, entry in phases.items():
        ctx = f"phases[{name}]"
        expect(isinstance(entry, dict), path, f"{ctx}: not an object")
        expect(is_num(entry.get("seconds")) and entry["seconds"] >= 0, path,
               f"{ctx}.seconds: not a non-negative number")
        expect(is_num(entry.get("fraction")), path,
               f"{ctx}.fraction: not a number")
        phase_total += entry["seconds"]
    expect(is_num(doc.get("phase_seconds_total")), path,
           "'phase_seconds_total': not a number")
    expect(math.isclose(doc["phase_seconds_total"], phase_total,
                        rel_tol=1e-6, abs_tol=1e-9), path,
           f"phase_seconds_total {doc['phase_seconds_total']} != "
           f"sum of phases {phase_total}")
    expect(is_num(doc.get("phase_coverage")), path,
           "'phase_coverage': not a number")

    results = doc.get("results")
    expect(isinstance(results, dict), path, "'results': not an object")
    for name, value in results.items():
        expect(is_num(value), path, f"results[{name}]: not a number")

    if "checkpoint" in doc:
        validate_checkpoint_sidecar(doc["checkpoint"], path)

    validate_metrics_object(doc.get("metrics"), path, "metrics")


def validate_checkpoint_sidecar(cp, path: str) -> None:
    """Resume-lineage metadata written by checkpointing runs (optional)."""
    expect(isinstance(cp, dict), path, "'checkpoint': not an object")
    expect(isinstance(cp.get("resumed"), bool), path,
           "checkpoint.resumed: not a boolean")
    # Run ids are 64-bit values serialized as 0x-prefixed hex strings so they
    # survive JSON number precision.
    for key in ("run_id", "parent_run_id"):
        value = cp.get(key)
        expect(isinstance(value, str) and value.startswith("0x"), path,
               f"checkpoint.{key}: not a 0x-prefixed hex string")
        try:
            int(value, 16)
        except ValueError:
            fail(path, f"checkpoint.{key}: not parseable as hex: {value!r}")
    for key in ("checkpoint_count", "presentation_cursor"):
        expect(isinstance(cp.get(key), int) and cp[key] >= 0, path,
               f"checkpoint.{key}: not a non-negative integer")
    if cp["resumed"]:
        expect(int(cp["parent_run_id"], 16) != 0, path,
               "checkpoint: resumed run must carry a non-zero parent_run_id")


# Prometheus text exposition format (version 0.0.4): '# TYPE' headers,
# optional labels, numeric sample values (+Inf/-Inf/NaN allowed).
_PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})?\s+(\S+)$")
_PROM_SUFFIX = re.compile(r"_(bucket|sum|count)$")


def validate_prometheus(text: str, path: str) -> None:
    typed: dict[str, str] = {}
    samples = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            expect(len(parts) == 4, path,
                   f"line {lineno}: malformed TYPE line: {line!r}")
            expect(parts[3] in ("counter", "gauge", "histogram", "summary",
                                "untyped"), path,
                   f"line {lineno}: unknown metric type {parts[3]!r}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = _PROM_SAMPLE.match(line)
        expect(m is not None, path,
               f"line {lineno}: not a valid sample line: {line!r}")
        name = m.group(1)
        base = _PROM_SUFFIX.sub("", name)
        expect(name in typed or base in typed, path,
               f"line {lineno}: sample {name!r} has no preceding TYPE line")
        value = m.group(3)
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                fail(path, f"line {lineno}: non-numeric value {value!r}")
        samples += 1
    expect(samples > 0, path, "exposition contains no samples")


_GRAPH_LAYER_NS = re.compile(r"^graph\.l(\d+)\.(conv|pool|wta)\.ns$")
_GRAPH_LAYER_SPIKES = re.compile(r"^graph\.l(\d+)\.spikes$")


def validate_graph_metrics(m: dict, path: str) -> None:
    """Layer-graph sidecar (pss_run layers=..., BENCH_graph.json): the
    per-presentation families must be present and the per-layer counters
    must name a contiguous stack — layer i appearing without i-1 means a
    torn run or a renamed family."""
    counters = m["counters"]
    for name in ("graph.presentations", "graph.input_spikes",
                 "graph.encode.ns"):
        expect(name in counters, path,
               f"graph sidecar: missing counter '{name}'")
    ns_layers = set()
    spike_layers = set()
    for name in counters:
        match = _GRAPH_LAYER_NS.match(name)
        if match:
            ns_layers.add(int(match.group(1)))
        match = _GRAPH_LAYER_SPIKES.match(name)
        if match:
            spike_layers.add(int(match.group(1)))
    expect(ns_layers == spike_layers, path,
           f"graph sidecar: per-layer ns counters name layers "
           f"{sorted(ns_layers)} but spike counters name "
           f"{sorted(spike_layers)}")
    expect(ns_layers == set(range(len(ns_layers))), path,
           f"graph sidecar: layer indices {sorted(ns_layers)} are not "
           "contiguous from 0")
    expect(len(ns_layers) > 0, path,
           "graph sidecar: no per-layer graph.l<i>.* counters")


def validate_trace(doc: dict, path: str) -> None:
    events = doc.get("traceEvents")
    expect(isinstance(events, list), path, "'traceEvents': not a list")
    expect(len(events) > 0, path, "trace contains no events")
    for i, e in enumerate(events):
        ctx = f"traceEvents[{i}]"
        expect(isinstance(e, dict), path, f"{ctx}: not an object")
        expect(isinstance(e.get("name"), str) and e["name"], path,
               f"{ctx}.name: not a non-empty string")
        expect(e.get("ph") == "X", path,
               f"{ctx}.ph: {e.get('ph')!r}, expected 'X' (complete event)")
        for key in ("ts", "dur"):
            expect(is_num(e.get(key)) and e[key] >= 0, path,
                   f"{ctx}.{key}: not a non-negative number")
        for key in ("pid", "tid"):
            expect(isinstance(e.get(key), int), path,
                   f"{ctx}.{key}: not an integer")
        # Layer-graph spans: graph.present is categorised by pass kind,
        # every other graph.* span (encode + per-layer) by "graph".
        name = e["name"]
        if name == "graph.present":
            expect(e.get("cat") in ("train", "readout"), path,
                   f"{ctx}: graph.present cat {e.get('cat')!r}, expected "
                   "'train' or 'readout'")
        elif name.startswith("graph."):
            expect(e.get("cat") == "graph", path,
                   f"{ctx}: {name} cat {e.get('cat')!r}, expected 'graph'")


def validate_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        fail(path, f"cannot read: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        # Not JSON: the only non-JSON artifact we emit is the Prometheus
        # text exposition (prom= sidecar / metrics_port= scrape).
        if any(line.startswith("# TYPE ") for line in text.splitlines()):
            validate_prometheus(text, path)
            return "prometheus-text"
        fail(path, f"cannot parse: {exc}")
    expect(isinstance(doc, dict), path, "top level is not an object")
    if "traceEvents" in doc:
        validate_trace(doc, path)
        return "chrome-trace"
    schema = doc.get("schema")
    if schema == "pss.manifest.v1":
        validate_manifest(doc, path)
    elif schema == "pss.metrics.v1":
        validate_metrics(doc, path)
    else:
        fail(path, f"unrecognized document (schema={schema!r})")
    return schema


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        kind = validate_file(path)
        print(f"validate_manifest: {path}: OK ({kind})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
