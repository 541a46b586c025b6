#!/usr/bin/env python3
"""Perf-regression gate: diff a pss.metrics.v1 bench record against a
committed baseline and fail on regressions outside the tolerance band.

Usage:
    tools/bench_compare.py BASELINE CURRENT [--update] [--quiet]

BASELINE is a pss.bench-baseline.v1 file (see bench/baselines/*.json):

    {
      "schema": "pss.bench-baseline.v1",
      "bench": "backend",
      "metrics": {
        "bench.backend.phase.aggregate.cpu_sparse.speedup":
            {"value": 5.13, "tolerance": 0.3, "direction": "higher"}
      }
    }

CURRENT is the pss.metrics.v1 file a bench binary wrote (its gauges are
compared; counters are consulted when a gauge with the name is absent).

The band is one-sided and relative: a metric with direction "higher" fails
only when current < value * (1 - tolerance); "lower" fails only when
current > value * (1 + tolerance). Improvements always pass — the gate
catches regressions, not drift in the good direction. A metric listed in
the baseline but missing from CURRENT fails (a deleted metric is how
regressions hide).

Exit codes: 0 all metrics within band, 1 regression or missing metric,
2 malformed input / usage error.

--update rewrites BASELINE in place with the values from CURRENT (keeping
each metric's tolerance and direction) — the ratchet for intentional
performance changes. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import sys

BASELINE_SCHEMA = "pss.bench-baseline.v1"


class InputError(Exception):
    pass


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: cannot parse: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level is not an object")
    return doc


def load_baseline(path: str) -> dict:
    doc = load_json(path)
    if doc.get("schema") != BASELINE_SCHEMA:
        raise InputError(f"{path}: schema is {doc.get('schema')!r}, "
                         f"expected {BASELINE_SCHEMA!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        raise InputError(f"{path}: 'metrics' is not a non-empty object")
    for name, spec in metrics.items():
        if not isinstance(spec, dict):
            raise InputError(f"{path}: metrics[{name}]: not an object")
        value = spec.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InputError(f"{path}: metrics[{name}].value: not a number")
        tol = spec.get("tolerance")
        if not isinstance(tol, (int, float)) or isinstance(tol, bool) \
                or tol < 0:
            raise InputError(f"{path}: metrics[{name}].tolerance: "
                             "not a non-negative number")
        if spec.get("direction") not in ("higher", "lower"):
            raise InputError(f"{path}: metrics[{name}].direction: "
                             f"{spec.get('direction')!r}, expected "
                             "'higher' or 'lower'")
    return doc


def load_current(path: str) -> dict:
    doc = load_json(path)
    if doc.get("schema") != "pss.metrics.v1":
        raise InputError(f"{path}: schema is {doc.get('schema')!r}, "
                         "expected 'pss.metrics.v1'")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise InputError(f"{path}: 'metrics' is not an object")
    merged = {}
    merged.update(metrics.get("counters") or {})
    merged.update(metrics.get("gauges") or {})  # gauges win on name clash
    return merged


def bound(spec: dict) -> float:
    """The worst acceptable value for this metric."""
    if spec["direction"] == "higher":
        return spec["value"] * (1.0 - spec["tolerance"])
    return spec["value"] * (1.0 + spec["tolerance"])


def compare(baseline: dict, current: dict, quiet: bool) -> int:
    regressions = 0
    width = max(len(n) for n in baseline["metrics"])
    for name, spec in sorted(baseline["metrics"].items()):
        limit = bound(spec)
        got = current.get(name)
        if got is None:
            regressions += 1
            print(f"REGRESS  {name:<{width}}  missing from current record "
                  f"(baseline {spec['value']:.6g})")
            continue
        if spec["direction"] == "higher":
            ok = got >= limit
        else:
            ok = got <= limit
        if ok:
            if not quiet:
                print(f"ok       {name:<{width}}  {got:.6g}  "
                      f"(baseline {spec['value']:.6g}, "
                      f"{spec['direction']} is better, "
                      f"limit {limit:.6g})")
        else:
            regressions += 1
            print(f"REGRESS  {name:<{width}}  {got:.6g}  vs baseline "
                  f"{spec['value']:.6g} — past the "
                  f"{spec['tolerance']:.0%} band (limit {limit:.6g})")
    return regressions


def update_baseline(path: str, baseline: dict, current: dict) -> int:
    missing = [n for n in baseline["metrics"] if n not in current]
    if missing:
        for name in missing:
            print(f"bench_compare: --update: {name} missing from current "
                  "record, baseline untouched", file=sys.stderr)
        return 2
    for name, spec in baseline["metrics"].items():
        spec["value"] = current[name]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"bench_compare: baseline {path} updated "
          f"({len(baseline['metrics'])} metrics)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a bench record regresses past its committed "
                    "baseline tolerance band.")
    parser.add_argument("baseline", help="pss.bench-baseline.v1 file")
    parser.add_argument("current", help="pss.metrics.v1 bench record")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline values from CURRENT")
    parser.add_argument("--quiet", action="store_true",
                        help="only print regressions")
    args = parser.parse_args(argv)

    try:
        baseline = load_baseline(args.baseline)
        current = load_current(args.current)
    except InputError as err:
        print(f"bench_compare: {err}", file=sys.stderr)
        return 2

    if args.update:
        return update_baseline(args.baseline, baseline, current)

    regressions = compare(baseline, current, args.quiet)
    if regressions:
        print(f"bench_compare: {regressions} regression(s) vs "
              f"{args.baseline}")
        return 1
    print(f"bench_compare: {len(baseline['metrics'])} metrics within band "
          f"({args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
