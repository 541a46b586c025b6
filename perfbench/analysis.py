"""Metric derivation for the repository benchmark.

perfbench_runner writes raw results (spans, per-request records, output
facts); everything the benchmark reports is computed here from them, so the
arithmetic — percentiles, open-loop lateness, self time, attribution — is
plain Python that tests/test_analysis.py checks directly.

Definitions:
  percentile   nearest rank: the ceil(p/100 * n)-th smallest value. A failed
               or refused request has latency +inf, so it always misses the
               limit and lifts the upper percentiles.
  latency      open loop: from the time a request was due to be sent to the
               time its response arrived. Generator lateness (sent - due) is
               reported on its own as loadgen.lag_p99_ms.
  self time    a span's duration minus the part of it covered by the union
               of its children's intervals.
  attribution  over the main-thread span tree under "run": a layer span's
               self time belongs to its layer; a compute span's self time is
               attributed through the leaf *.ns counters the library
               published inside it (capped at the self time); group spans
               and the uncovered rest are unattributed.
"""

import math
import re
import statistics

LEAF_NS = re.compile(
    r"^(phase\.[a-z]+\.ns|graph\.encode\.ns|graph\.l\d+\.(conv|pool)\.ns)$")

GROUP = 20  # images per throughput sample


def percentile(values, p):
    """Nearest-rank percentile; +inf entries are failed requests."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def grouped_rates(durations_s, group=GROUP):
    """Items per second of consecutive groups of `group` items (a short
    last group is dropped unless it is the only one)."""
    rates = []
    for a in range(0, len(durations_s), group):
        chunk = durations_s[a:a + group]
        if len(chunk) < group and rates:
            break
        rates.append(len(chunk) / sum(chunk))
    return rates


# --- requests ---------------------------------------------------------------

class Request:
    """One row of the runner's request table."""
    COLUMNS = ("phase", "train", "due", "send", "done", "status", "value",
               "malformed", "label")

    def __init__(self, row):
        for name, value in zip(self.COLUMNS, row):
            setattr(self, name, value)

    @property
    def ok(self):
        return self.status == 0

    @property
    def latency_ms(self):
        if not self.ok:
            return math.inf
        return (self.done - self.due) / 1e6

    @property
    def lag_ms(self):
        return (self.send - self.due) / 1e6


def requests_of(raw):
    return [Request(row) for row in raw["serve"]["requests"]]


def latencies(reqs, phase, train):
    return [r.latency_ms for r in reqs if r.phase == phase and
            bool(r.train) == train]


def ladder_max(rungs):
    """Highest rate among the rungs that passed; 0 when none did.
    rungs: [(rate, passed)], as the runner judged them (a rung passes when
    its classify p99 is within the limit and the backlog it left when its
    last request went out is within max(8, rate x limit))."""
    return max([rate for rate, passed in rungs if passed], default=0.0)


# --- spans ------------------------------------------------------------------

def covered(interval, children):
    """Length of the union of `children` intervals clipped to `interval`."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in children
                     if min(hi, b) > max(lo, a))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Span id -> self time in ns."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(
                (s["t0_ns"], s["t1_ns"]))
    return {s["id"]: (s["t1_ns"] - s["t0_ns"]) -
            covered((s["t0_ns"], s["t1_ns"]), children.get(s["id"], []))
            for s in spans}


def leaf_ns(deltas):
    return sum(v for k, v in (deltas or {}).items() if LEAF_NS.match(k))


def run_tree(spans):
    """Spans under the root "run" span (the main-thread tree)."""
    by_parent = {}
    root = None
    for s in spans:
        if s["parent"] < 0 and s["name"] == "run":
            root = s
        by_parent.setdefault(s["parent"], []).append(s)
    if root is None:
        raise ValueError("no run span")
    tree, todo = [], [root]
    while todo:
        s = todo.pop()
        tree.append(s)
        todo.extend(by_parent.get(s["id"], []))
    return root, tree


def unattributed_share(spans):
    """Share of the run's wall time no per-layer self time accounts for."""
    root, tree = run_tree(spans)
    selfs = self_times(tree)
    attributed = 0.0
    for s in tree:
        if s["kind"] == "layer":
            attributed += selfs[s["id"]]
        elif s["kind"] == "compute":
            attributed += min(selfs[s["id"]], leaf_ns(s.get("deltas")))
    wall = root["t1_ns"] - root["t0_ns"]
    return (wall - attributed) / wall


def named(spans, name):
    return [s for s in spans if s["name"] == name]


def seconds(spans):
    return [(s["t1_ns"] - s["t0_ns"]) / 1e9 for s in spans]


def summed(spans, key):
    return sum((s.get("deltas") or {}).get(key, 0.0) for s in spans)


def summed_re(spans, pattern):
    rx = re.compile(pattern)
    return sum(v for s in spans for k, v in (s.get("deltas") or {}).items()
               if rx.match(k))


def setup_spans(spans, name):
    """Spans named `name` inside the set-up groups."""
    setups = {s["id"] for s in spans if s["name"] == "setup"}
    return [s for s in spans if s["name"] == name and s["parent"] in setups]


# --- end-to-end metrics -----------------------------------------------------

def digits_end_to_end(raw):
    spans = raw["spans"]
    train = [t * 1000.0 for t in seconds(named(spans, "graph.train"))]
    evals = [t * 1000.0 for t in seconds(named(spans, "graph.eval"))]
    d = raw["digits"]
    return {
        "train_img_per_s": statistics.median(
            grouped_rates([t / 1000.0 for t in train])),
        "eval_img_per_s": statistics.median(
            grouped_rates([t / 1000.0 for t in evals])),
        "accuracy": d["correct"] / d["eval_images"],
        "classify_p50_ms": percentile(evals, 50),
        "classify_p99_ms": percentile(evals, 99),
        "train_p95_ms": percentile(train, 95),
        # One worker serving presentations back to back: with no arrival
        # process, the highest rate it sustains is its capacity.
        "max_rps_at_slo": len(evals) / (sum(evals) / 1000.0),
        "served_ratio": 1.0,  # a failed presentation aborts the run
    }


def serve_end_to_end(raw):
    s = raw["serve"]
    reqs = requests_of(raw)
    ref = [r for r in reqs if r.phase == 1]
    ref_classify = [r for r in ref if not r.train]
    rungs = [(p["rate"], p["passed"]) for p in s["phases"][2:]]
    return {
        "train_img_per_s": 1000.0 / statistics.median(s["train_compute_ms"]),
        "eval_img_per_s": 1000.0 / statistics.median(
            s["classify_compute_ms"]),
        "accuracy": sum(1 for r in ref_classify
                        if r.ok and r.value == r.label) / len(ref_classify),
        "classify_p50_ms": percentile(latencies(reqs, 1, False), 50),
        "classify_p99_ms": percentile(latencies(reqs, 1, False), 99),
        "train_p95_ms": percentile(latencies(reqs, 1, True), 95),
        "max_rps_at_slo": ladder_max(rungs),
        "served_ratio": sum(1 for r in reqs if r.ok) / len(reqs),
    }


def end_to_end(raw):
    spans = raw["spans"]
    m = (serve_end_to_end(raw) if "serve" in raw else digits_end_to_end(raw))
    m["setup_s"] = statistics.median(seconds(named(spans, "setup")))
    m["peak_rss_mb"] = raw["peak_rss_mb"]
    return m


def latency_samples(raw):
    """Samples behind the latency percentiles: (classify, train)."""
    if "serve" in raw:
        reqs = requests_of(raw)
        return len(latencies(reqs, 1, False)), len(latencies(reqs, 1, True))
    spans = raw["spans"]
    return len(named(spans, "graph.eval")), len(named(spans, "graph.train"))


def sample_note(raw):
    """One line stating the sample count behind each latency percentile."""
    classify, train = latency_samples(raw)
    return ("samples: classify %d (%d beyond p99), train %d (%d beyond p95)"
            % (classify, samples_beyond(classify, 99), train,
               samples_beyond(train, 95)))


def attempted_failed(raw):
    if "serve" in raw:
        reqs = requests_of(raw)
        return len(reqs), sum(1 for r in reqs if not r.ok)
    d = raw["digits"]
    return d["train_images"] + d["label_images"] + d["eval_images"], 0


# --- per-layer metrics ------------------------------------------------------

def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def per_layer(traced, untraced):
    """Per-layer metrics of a traced run; `untraced` is the same workload
    and seed run with tracing off (for trace.overhead_share)."""
    spans = traced["spans"]
    serve = "serve" in traced
    m = {}
    m["data.generate_s"] = _median_or_zero(
        seconds(setup_spans(spans, "data.generate")))
    m["graph.build_s"] = _median_or_zero(
        seconds(setup_spans(spans, "graph.build")))
    if serve:
        # The serving model is trained in set-up: report one set-up's worth.
        for name in ("graph.train", "graph.label"):
            m[name + "_s"] = _median_or_zero(seconds(setup_spans(spans, name)))
        m["graph.eval_s"] = 0.0
        ref_phase = traced["serve"]["phases"][1]
        work = [s for s in spans if s["id"] == ref_phase["span"]]
    else:
        for name in ("graph.train", "graph.label", "graph.eval"):
            m[name + "_s"] = sum(seconds(named(spans, name)))
        work = [s for s in spans if s["name"] in
                ("graph.train", "graph.label", "graph.eval")]

    conv_ns = summed_re(work, r"^graph\.l\d+\.conv\.ns$")
    graph_in = summed(work, "graph.input_spikes")
    m["graph.conv_ms"] = conv_ns / 1e6
    m["graph.conv_ns_per_input_spike"] = conv_ns / graph_in if conv_ns else 0.0
    m["graph.pool_ms"] = summed_re(work, r"^graph\.l\d+\.pool\.ns$") / 1e6
    m["graph.encode_ms"] = summed(work, "graph.encode.ns") / 1e6
    for i in range(3):
        m["graph.l%d.spikes" % i] = summed(work, "graph.l%d.spikes" % i)
    for phase in ("stdp", "integrate", "encode", "homeostasis"):
        m["network.%s_ms" % phase] = summed(work, "phase.%s.ns" % phase) / 1e6
    m["network.input_spikes"] = summed(work, "present.input_spikes")
    m["network.output_spikes"] = summed(work, "present.output_spikes")
    touched = summed(work, "sparse.synapses_touched")
    flushed = summed(work, "sparse.flush.synapses")
    m["backend.sparse.synapses_touched"] = touched
    m["backend.sparse.flush_synapses"] = flushed
    m["backend.sparse.flush_share"] = flushed / touched if touched else 0.0

    m.update(_serve_layers(traced) if serve else _no_serve_layers())
    m["samples.classify"], m["samples.train"] = latency_samples(traced)
    m["trace.unattributed_share"] = unattributed_share(spans)
    m["trace.overhead_share"] = _overhead(traced, untraced)
    return m


_SERVE_LAYERS = (
    "io.snapshot_save_ms", "serve.start_ms", "serve.rtt_ms",
    "serve.server_latency_ms", "serve.wire_ms", "serve.compute_ms",
    "serve.wait_ms", "serve.batch_size_mean", "serve.admitted",
    "serve.completed", "serve.shed", "serve.expired", "serve.requeue",
    "serve.model_generations", "serve.fail_ratio", "loadgen.lag_p99_ms")


def _no_serve_layers():
    return {name: 0.0 for name in _SERVE_LAYERS}


def _serve_layers(raw):
    s = raw["serve"]
    spans = raw["spans"]
    reqs = requests_of(raw)
    ref_span = next(x for x in spans if x["id"] == s["phases"][1]["span"])
    measure = named(spans, "measure")
    deltas = ref_span.get("deltas") or {}
    rtt = [x for x in spans if x["name"] == "serve.rtt" and
           reqs[x["trace"]].phase == 1]
    hist_n = deltas.get("serve.latency_seconds.count", 0.0)
    server_ms = (deltas.get("serve.latency_seconds.sum", 0.0) / hist_n *
                 1000.0 if hist_n else 0.0)
    rtt_ms = _mean([(x["t1_ns"] - x["t0_ns"]) / 1e6 for x in rtt])
    compute_ms = _mean(s["classify_compute_ms"] + s["train_compute_ms"])
    batches = deltas.get("serve.batch_size.count", 0.0)
    open_loop = [r for r in reqs if r.phase >= 1]
    return {
        "io.snapshot_save_ms": 1000.0 * _median_or_zero(
            seconds(setup_spans(spans, "io.snapshot_save"))),
        "serve.start_ms": 1000.0 * _median_or_zero(
            seconds(setup_spans(spans, "serve.start"))),
        "serve.rtt_ms": rtt_ms,
        "serve.server_latency_ms": server_ms,
        "serve.wire_ms": rtt_ms - server_ms,
        "serve.compute_ms": compute_ms,
        "serve.wait_ms": server_ms - compute_ms,
        "serve.batch_size_mean": (deltas.get("serve.batch_size.sum", 0.0) /
                                  batches if batches else 0.0),
        "serve.admitted": summed(measure, "serve.admitted"),
        "serve.completed": summed(measure, "serve.completed"),
        "serve.shed": summed(measure, "serve.shed"),
        "serve.expired": summed(measure, "serve.expired"),
        "serve.requeue": summed(measure, "serve.requeue"),
        "serve.model_generations": sum(p["generations"] for p in s["phases"]),
        "serve.fail_ratio": sum(1 for r in reqs if not r.ok) / len(reqs),
        "loadgen.lag_p99_ms": percentile([r.lag_ms for r in open_loop], 99),
    }


def _overhead(traced, untraced):
    """Traced over untraced wall time of the same measured work, minus one:
    the per-image presentation spans for the digits workloads, the mean
    round trip of the reference phase for serve_mixed."""
    if "serve" in traced:
        def ref_rtt(raw):
            return _mean([(r.done - r.send) / 1e6 for r in requests_of(raw)
                          if r.phase == 1 and r.ok])
        return ref_rtt(traced) / ref_rtt(untraced) - 1.0

    def work(raw):
        return sum(seconds([s for s in raw["spans"] if s["name"] in
                            ("graph.train", "graph.label", "graph.eval")]))
    return work(traced) / work(untraced) - 1.0


# --- determinism ------------------------------------------------------------

COUNTS = re.compile(r"^(present\.(count|input_spikes|output_spikes)|"
                    r"sparse\.(synapses_touched|flush\.synapses)|"
                    r"graph\.(presentations|input_spikes|l\d+\.spikes))$")


def determinism_counts(raw):
    """What must repeat exactly for a seed: the outcome and the library's
    work counters summed over the measured presentation spans (traced
    digits runs)."""
    d = raw["digits"]
    counts = {"correct": d["correct"], "eval_images": d["eval_images"],
              "abstained": d["abstained"],
              "presentations": d["presentations"]}
    for s in raw["spans"]:
        if s["name"] in ("graph.train", "graph.label", "graph.eval"):
            for k, v in (s.get("deltas") or {}).items():
                if COUNTS.match(k):
                    counts[k] = counts.get(k, 0) + v
    return counts


# --- output checks ----------------------------------------------------------

def check(raw, expected):
    """Output-check violations (empty list = correct). `expected` maps
    str(seed) -> [correct, eval_images] for this workload and run length."""
    problems = []
    if "digits" in raw:
        d = raw["digits"]
        if d["replay_mismatch"]:
            problems.append("%d evaluation answers changed on replay" %
                            d["replay_mismatch"])
        if d["labelled_neurons"] == 0:
            problems.append("no neuron was labelled")
        record = expected.get(str(raw["seed"]))
        if record is not None and record != [d["correct"], d["eval_images"]]:
            problems.append("accuracy %d/%d differs from the recorded %d/%d"
                            % (d["correct"], d["eval_images"], *record))
        return problems
    s = raw["serve"]
    reqs = requests_of(raw)
    if s["warmup_mismatch"]:
        problems.append("%d warm-up answers differ from the offline replay" %
                        s["warmup_mismatch"])
    if s["unknown_responses"]:
        problems.append("%d responses matched no outstanding request" %
                        s["unknown_responses"])
    malformed = sum(1 for r in reqs if r.malformed)
    if malformed:
        problems.append("%d malformed responses" % malformed)
    unanswered = sum(1 for r in reqs if r.done == 0)
    if unanswered:
        problems.append("%d requests never answered" % unanswered)
    return problems
