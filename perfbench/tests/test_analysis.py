#!/usr/bin/env python3
"""Unit tests for perfbench/analysis.py: percentiles and sample counts,
open-loop lateness accounting, self-time and attribution arithmetic, and
the output checks.

    python3 perfbench/tests/test_analysis.py
"""

import math
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import analysis  # noqa: E402

MS = 1000000  # ns per ms


def span(sid, parent, t0, t1, name="s", kind="group", deltas=None, trace=0):
    s = {"id": sid, "parent": parent, "trace": trace, "name": name,
         "kind": kind, "t0_ns": t0, "t1_ns": t1}
    if deltas:
        s["deltas"] = deltas
    return s


def request(phase=1, train=0, due=0, send=0, done=0, status=0, value=0,
            malformed=0, label=0):
    return [phase, train, due, send, done, status, value, malformed, label]


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(analysis.percentile(values, 50), 50)
        self.assertEqual(analysis.percentile(values, 99), 99)
        self.assertEqual(analysis.percentile(values, 100), 100)
        self.assertEqual(analysis.percentile([7.0], 99), 7.0)
        self.assertEqual(analysis.percentile([3, 1, 2], 50), 2)

    def test_failed_requests_are_infinite(self):
        values = [1.0] * 98 + [math.inf, math.inf]
        self.assertEqual(analysis.percentile(values, 98), 1.0)
        self.assertEqual(analysis.percentile(values, 99), math.inf)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            analysis.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(analysis.samples_beyond(1000, 99), 10)
        self.assertEqual(analysis.samples_beyond(650, 95), 32)
        self.assertEqual(analysis.samples_beyond(400, 99), 4)
        self.assertEqual(analysis.samples_beyond(1, 99), 0)

    def test_grouped_rates(self):
        # 45 items of 0.01 s: two full groups of 20, the short tail dropped.
        rates = analysis.grouped_rates([0.01] * 45, 20)
        self.assertEqual(len(rates), 2)
        for rate in rates:
            self.assertAlmostEqual(rate, 100.0)
        # A run shorter than one group still yields one rate.
        self.assertEqual(analysis.grouped_rates([0.5, 0.5], 20), [2.0])


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Due at 0, sent 30 ms late, answered 10 ms after sending.
        r = analysis.Request(request(due=0, send=30 * MS, done=40 * MS))
        self.assertAlmostEqual(r.lag_ms, 30.0)
        self.assertAlmostEqual(r.latency_ms, 40.0)

    def test_failed_request_misses_any_limit(self):
        for status in (1, 2, 3):  # overloaded, deadline exceeded, error
            r = analysis.Request(request(due=0, send=0, done=1 * MS,
                                         status=status))
            self.assertEqual(r.latency_ms, math.inf)

    def test_every_refusal_counts_as_failed(self):
        rows = [request(status=0, done=1 * MS), request(status=1),
                request(status=2), request(status=3)]
        raw = {"serve": {"requests": rows}}
        self.assertEqual(analysis.attempted_failed(raw), (4, 3))

    def test_ladder_max_is_highest_passing_rung(self):
        # A single miss below capacity (a host stall) does not cap the rate.
        self.assertEqual(analysis.ladder_max(
            [(100, True), (200, False), (300, True), (400, False),
             (500, False)]), 300)
        self.assertEqual(analysis.ladder_max([(100, False), (200, False)]),
                         0.0)
        self.assertEqual(analysis.ladder_max([(100, True), (200, True)]), 200)


class SelfTime(unittest.TestCase):
    def test_covered_is_a_clipped_union(self):
        self.assertEqual(analysis.covered((0, 100), []), 0)
        self.assertEqual(analysis.covered((0, 100), [(10, 20), (30, 40)]), 20)
        # Overlapping children count once.
        self.assertEqual(analysis.covered((0, 100), [(10, 50), (40, 60)]), 50)
        # Children are clipped to the parent interval.
        self.assertEqual(analysis.covered((0, 100), [(-10, 10), (90, 200)]),
                         20)

    def test_self_time_is_span_minus_children(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 60),
                 span(3, 1, 15, 25)]
        selfs = analysis.self_times(spans)
        self.assertEqual(selfs, {0: 70, 1: 10, 2: 10, 3: 10})

    def test_unattributed_share(self):
        spans = [
            span(0, -1, 0, 1000, name="run"),
            # Layer span: all 200 ns of self time attributed.
            span(1, 0, 0, 200, kind="layer"),
            # Compute span of 500 ns whose counters explain 300 ns.
            span(2, 0, 300, 800, kind="compute",
                 deltas={"phase.stdp.ns": 200, "graph.l0.conv.ns": 100,
                         "graph.l2.wta.ns": 450, "present.count": 9}),
            # Counters may not claim more than the self time.
            span(3, 0, 800, 900, kind="compute",
                 deltas={"phase.integrate.ns": 500}),
            # Request spans outside the run tree do not count.
            span(4, -1, 0, 1000, name="request.classify", kind="layer",
                 trace=7),
        ]
        # Attributed: 200 + 300 + 100 = 600 of 1000.
        self.assertAlmostEqual(analysis.unattributed_share(spans), 0.4)

    def test_leaf_counters(self):
        deltas = {"phase.encode.ns": 1, "graph.encode.ns": 2,
                  "graph.l0.conv.ns": 4, "graph.l1.pool.ns": 8,
                  "graph.l2.wta.ns": 16, "graph.l0.spikes": 32}
        self.assertEqual(analysis.leaf_ns(deltas), 15)


class Checks(unittest.TestCase):
    def serve_raw(self, rows, **extra):
        serve = {"slo_ms": 100.0, "warmup_mismatch": 0,
                 "unknown_responses": 0,
                 "phases": [{"name": "warmup", "rate": 0.0},
                            {"name": "reference", "rate": 100.0}],
                 "requests": rows}
        serve.update(extra)
        return {"seed": 1, "serve": serve, "spans": []}

    def test_clean_serve_run(self):
        rows = [request(phase=1, due=0, send=0, done=5 * MS)] * 3
        self.assertEqual(analysis.check(self.serve_raw(rows), {}), [])

    def test_serve_violations(self):
        rows = [request(phase=1, done=5 * MS, malformed=1),
                request(phase=1, done=0, status=-1)]
        problems = analysis.check(self.serve_raw(rows, warmup_mismatch=2), {})
        self.assertEqual(len(problems), 3)

    def test_recorded_accuracy(self):
        raw = {"seed": 5, "digits": {"replay_mismatch": 0,
                                     "labelled_neurons": 90, "correct": 80,
                                     "eval_images": 100}}
        self.assertEqual(analysis.check(raw, {"5": [80, 100]}), [])
        self.assertEqual(analysis.check(raw, {}), [])  # seed not recorded
        self.assertEqual(len(analysis.check(raw, {"5": [81, 100]})), 1)


if __name__ == "__main__":
    unittest.main()
