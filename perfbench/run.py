#!/usr/bin/env python3
"""Repository benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
perfbench_runner (perfbench/CMakeLists.txt: the pss library from src/ plus
the runner) under build-perfbench/; later runs only check it is current.
The workload runs in its own process with its inputs generated from --seed.

--trace 0 runs the workload with the library's observability off and
reports every end-to-end metric of BENCHMARK.json. --trace 1 runs it twice
more, untraced then traced, and reports every per-layer metric: span and
counter figures from the traced run, plus trace.overhead_share from the
pair. Metrics that do not apply to a workload (a conv counter on a
WTA-only model) read 0; perfbench/workloads.json says which apply where.

The last line of standard output is one JSON object:
    {"correct": bool, "attempted": n, "failed": n,
     "metrics": {name: {"value": v, "unit": u}, ...}}
The exit code is 0 when every output check passed, 1 when one failed (the
JSON is still printed), and 2 when the benchmark could not run at all.

    python3 perfbench/run.py --record <workload> --seeds 1-20 [--seconds s]
records the evaluation outcome of each seed in perfbench/expected.json.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import analysis  # noqa: E402


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources at src/ — run from a full "
                         "source checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        step(["cmake", "--build", BUILD, "-j", jobs, "--target",
              "perfbench_runner"])
    return os.path.join(BUILD, "perfbench_runner")


def step(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError("build step failed: " + " ".join(cmd))


def drive(binary, workload, seed, seconds, traced):
    """Runs perfbench_runner once and returns its raw results."""
    work = os.path.join(BUILD, "runs", "%s-%d-%d-%d" % (
        workload, seed, int(traced), os.getpid()))
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "raw.json")
    try:
        done = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", repr(float(seconds)), "--trace", str(int(traced)),
             "--out", out, "--workdir", work],
            stdout=sys.stderr, stderr=sys.stderr, timeout=170)
        if done.returncode != 0:
            raise BenchError("perfbench_runner failed (exit %d)" %
                             done.returncode)
        with open(out) as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def expected_for(workload, seconds):
    if not os.path.isfile(EXPECTED):
        return {}
    table = load_json(EXPECTED)
    if float(table.get("seconds", -1)) != float(seconds):
        return {}
    return table.get(workload, {})


def measure(args, spec):
    binary = build()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError("unknown workload %r (known: %s)" %
                         (args.workload, ", ".join(names)))
    untraced = drive(binary, args.workload, args.seed, args.seconds, False)
    if args.trace:
        traced = drive(binary, args.workload, args.seed, args.seconds, True)
        values = analysis.per_layer(traced, untraced)
        declared = spec["per_layer"]
    else:
        values = analysis.end_to_end(untraced)
        declared = spec["end_to_end"]
        log("perfbench:", analysis.sample_note(untraced))
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError("metrics not computed: " + ", ".join(missing))
    expected = expected_for(args.workload, args.seconds)
    if "digits" in untraced and str(args.seed) not in expected:
        log("perfbench: no recorded accuracy for seed %d at %gs; checking "
            "replay determinism only" % (args.seed, args.seconds))
    problems = analysis.check(untraced, expected)
    if args.trace:
        problems += analysis.check(traced, expected)
    for p in problems:
        log("perfbench: output check failed:", p)
    for name, value in values.items():
        if not math.isfinite(value):
            # A percentile reaching into failed requests (latency +inf);
            # JSON has no infinity, so report a value no limit admits.
            log("perfbench: %s is infinite, reported as 1e9" % name)
            values[name] = 1e9
    attempted, failed = analysis.attempted_failed(untraced)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def write_expected(table):
    """expected.json with one line per seed."""
    blocks = []
    for workload in sorted(k for k in table if k != "seconds"):
        rows = sorted(table[workload].items(), key=lambda kv: int(kv[0]))
        blocks.append('  "%s": {\n%s\n  }' % (workload, ",\n".join(
            '    "%s": %s' % (seed, json.dumps(v)) for seed, v in rows)))
    with open(EXPECTED, "w") as f:
        f.write('{\n  "seconds": %s,\n%s\n}\n' % (
            json.dumps(table["seconds"]), ",\n".join(blocks)))


def record(args):
    """Runs each seed untraced and stores its evaluation outcome."""
    binary = build()
    lo, _, hi = args.seeds.partition("-")
    table = load_json(EXPECTED) if os.path.isfile(EXPECTED) else {}
    if float(table.get("seconds", args.seconds)) != float(args.seconds):
        raise BenchError("expected.json holds another run length")
    table["seconds"] = args.seconds
    entries = table.setdefault(args.record, {})
    for seed in range(int(lo), int(hi or lo) + 1):
        raw = drive(binary, args.record, seed, args.seconds, False)
        problems = analysis.check(raw, {})
        if problems:
            raise BenchError("seed %d: %s" % (seed, "; ".join(problems)))
        d = raw["digits"]
        entries[str(seed)] = [d["correct"], d["eval_images"]]
        log("seed %d: %d/%d" % (seed, d["correct"], d["eval_images"]))
        write_expected(table)
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="WORKLOAD")
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    try:
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        if args.record:
            return record(args)
        if not args.workload:
            raise BenchError("--workload is required")
        return measure(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench:", e)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
