#!/usr/bin/env python3
"""Pins tools/lint/pss_lint.py behaviour against tests/lint_fixtures/.

Asserts, for every rule: the seeded violations are reported at the expected
(file, rule) pairs, valid suppressions land in the report's `suppressed`
list (not `violations`), an unknown rule inside a suppression is itself a
violation, clean files stay clean, and the exit codes are exactly
0 = clean / 1 = violations / 2 = usage error. Runs as ctest `lint_fixtures`
(label `lint`); any assertion failure exits non-zero with a message.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

FAILURES = []


def check(cond, message):
    if not cond:
        FAILURES.append(message)
        print("FAIL: " + message, file=sys.stderr)


def run_lint(lint, args):
    proc = subprocess.run([sys.executable, lint] + args,
                          capture_output=True, text=True, timeout=60)
    return proc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lint", required=True, help="path to pss_lint.py")
    ap.add_argument("--fixtures", required=True,
                    help="path to tests/lint_fixtures")
    ap.add_argument("--work", required=True, help="scratch directory")
    args = ap.parse_args()

    os.makedirs(args.work, exist_ok=True)
    report_path = os.path.join(args.work, "report.json")

    # --- full fixture scan: exit 1, every seeded violation reported --------
    proc = run_lint(args.lint,
                    ["--root", args.fixtures, "--json", report_path,
                     "--quiet"])
    check(proc.returncode == 1,
          "fixture scan should exit 1 (violations), got %d: %s"
          % (proc.returncode, proc.stderr))
    with open(report_path) as f:
        report = json.load(f)
    check(report["schema"] == "pss.lint.v1", "unexpected report schema")
    check(report["status"] == "fail", "fixture report status should be fail")

    pairs = {(v["file"], v["rule"]) for v in report["violations"]}
    expected = {
        ("src/pss/engine/bad_rng.cpp", "nondeterministic-rng"),
        ("src/pss/engine/bad_alloc.cpp", "raw-alloc"),
        ("src/pss/engine/bad_suppress.cpp", "raw-alloc"),
        ("src/pss/engine/bad_suppress.cpp", "bad-suppression"),
        ("src/pss/backend/kernels_bad.cpp", "kernel-rng"),
        ("src/pss/backend/kernels_bad.cpp", "raw-alloc"),
        ("src/pss/synapse/unordered_iter.cpp", "unordered-iteration"),
        ("src/pss/obs/bad_perf.cpp", "raw-perf-syscall"),
        ("src/pss/obs/bad_socket.cpp", "raw-socket-syscall"),
        ("CMakeLists.txt", "fp-reassociation"),
        ("src/pss/prop/bad_seed.cpp", "prop-seed"),
        ("tests/test_prop_seeded.cpp", "prop-seed"),
    }
    for pair in expected:
        check(pair in pairs, "missing expected violation %s" % (pair,))

    # Per-rule counts on the multi-violation files.
    by_file_rule = {}
    for v in report["violations"]:
        key = (v["file"], v["rule"])
        by_file_rule[key] = by_file_rule.get(key, 0) + 1
    check(by_file_rule.get(
              ("src/pss/engine/bad_rng.cpp", "nondeterministic-rng"), 0) == 4,
          "bad_rng.cpp should yield 4 nondeterministic-rng findings, got %d"
          % by_file_rule.get(
              ("src/pss/engine/bad_rng.cpp", "nondeterministic-rng"), 0))
    check(by_file_rule.get(
              ("src/pss/backend/kernels_bad.cpp", "kernel-rng"), 0) == 2,
          "kernels_bad.cpp should yield 2 kernel-rng findings")
    check(by_file_rule.get(
              ("src/pss/synapse/unordered_iter.cpp",
               "unordered-iteration"), 0) == 2,
          "unordered_iter.cpp should yield 2 unordered-iteration findings")
    check(by_file_rule.get(
              ("src/pss/prop/bad_seed.cpp", "prop-seed"), 0) == 3,
          "bad_seed.cpp should yield 3 prop-seed findings (CounterRng, "
          "SequentialRng, std::mt19937), got %d"
          % by_file_rule.get(("src/pss/prop/bad_seed.cpp", "prop-seed"), 0))
    check(by_file_rule.get(
              ("tests/test_prop_seeded.cpp", "prop-seed"), 0) == 1,
          "test_prop_seeded.cpp should yield 1 prop-seed finding")
    check(by_file_rule.get(
              ("src/pss/obs/bad_perf.cpp", "raw-perf-syscall"), 0) == 2,
          "bad_perf.cpp should yield 2 raw-perf-syscall findings "
          "(SYS_ and __NR_ spellings)")
    check(by_file_rule.get(
              ("src/pss/obs/bad_socket.cpp", "raw-socket-syscall"), 0) == 3,
          "bad_socket.cpp should yield 3 raw-socket-syscall findings "
          "(header include, ::socket, ::listen) — the qualified member "
          "definition and wrapper-style call must stay clean")

    # Clean file: no findings at all.
    clean_hits = [v for v in report["violations"]
                  if v["file"] == "src/pss/neuron/clean.cpp"]
    check(not clean_hits,
          "clean.cpp (comments/strings only) should not fire: %s"
          % clean_hits)

    # Suppressions: recorded, not violations.
    sup_pairs = {(s["file"], s["rule"]) for s in report["suppressed"]}
    check(("src/pss/engine/suppressed_rng.cpp", "nondeterministic-rng")
          in sup_pairs, "valid suppression should be recorded as suppressed")
    check(("CMakeLists.txt", "fp-reassociation") in sup_pairs,
          "cmake suppression should be recorded as suppressed")
    check(("src/pss/prop/suppressed_seed.cpp", "prop-seed") in sup_pairs,
          "valid prop-seed suppression should be recorded as suppressed")
    check(not any(v["file"] == "src/pss/prop/suppressed_seed.cpp"
                  for v in report["violations"]),
          "suppressed_seed.cpp must not appear in violations")
    check(not any(v["file"] == "src/pss/engine/suppressed_rng.cpp"
                  for v in report["violations"]),
          "suppressed_rng.cpp must not appear in violations")

    # counts mirror violations.
    total = sum(report["counts"].values())
    check(total == len(report["violations"]),
          "counts (%d) must sum to len(violations) (%d)"
          % (total, len(report["violations"])))

    # --- rule subsetting ---------------------------------------------------
    proc = run_lint(args.lint,
                    ["--root", args.fixtures, "--rules", "kernel-rng",
                     "--json", report_path, "--quiet"])
    check(proc.returncode == 1, "kernel-rng subset should still exit 1")
    with open(report_path) as f:
        subset = json.load(f)
    check({v["rule"] for v in subset["violations"]} == {"kernel-rng"},
          "subset run must only report kernel-rng findings")

    # --- clean tree: exit 0, status pass -----------------------------------
    clean_root = os.path.join(args.work, "clean_tree")
    shutil.rmtree(clean_root, ignore_errors=True)
    os.makedirs(os.path.join(clean_root, "src", "pss", "engine"))
    with open(os.path.join(clean_root, "src", "pss", "engine", "ok.cpp"),
              "w") as f:
        f.write("double twice(double x) { return 2.0 * x; }\n")
    proc = run_lint(args.lint,
                    ["--root", clean_root, "--json", report_path])
    check(proc.returncode == 0,
          "clean tree should exit 0, got %d: %s"
          % (proc.returncode, proc.stderr))
    with open(report_path) as f:
        check(json.load(f)["status"] == "pass",
              "clean tree report status should be pass")

    # --- real-tree kernel TUs: Philox-only, no suppressions ----------------
    # The backend kernel translation units (including the event-driven
    # kernels_sparse.cpp) must stay clean under kernel-rng without a single
    # suppression — the rule is the determinism guarantee, not a guideline.
    repo_root = os.path.dirname(os.path.abspath(args.fixtures))
    repo_root = os.path.dirname(repo_root)
    kernel_tus = ["kernels_cpu.cpp", "kernels_sparse.cpp"]
    for tu in kernel_tus:
        check(os.path.exists(
                  os.path.join(repo_root, "src", "pss", "backend", tu)),
              "expected kernel TU missing from tree: %s" % tu)
    proc = run_lint(args.lint,
                    ["--root", repo_root, "--rules", "kernel-rng",
                     "--json", report_path, "--quiet"])
    check(proc.returncode == 0,
          "repo kernel TUs must be kernel-rng clean, got %d: %s"
          % (proc.returncode, proc.stderr))
    with open(report_path) as f:
        repo_report = json.load(f)
    check(repo_report["files_scanned"] > 0, "repo scan saw no files")
    check(not any(s["rule"] == "kernel-rng" and
                  os.path.basename(s["file"]) in kernel_tus
                  for s in repo_report["suppressed"]),
          "kernel TUs must not carry kernel-rng suppressions")

    # --- real tree: no raw-perf-syscall site at all ---------------------------
    # The rule has no allowed site: neither a finding nor a suppression.
    proc = run_lint(args.lint,
                    ["--root", repo_root, "--rules", "raw-perf-syscall",
                     "--json", report_path, "--quiet"])
    check(proc.returncode == 0,
          "repo tree must be raw-perf-syscall clean, got %d: %s"
          % (proc.returncode, proc.stderr))
    with open(report_path) as f:
        perf_report = json.load(f)
    perf_hits = [(s["file"], s["line"])
                 for s in perf_report["violations"] + perf_report["suppressed"]
                 if s["rule"] == "raw-perf-syscall"]
    check(not perf_hits,
          "expected no raw-perf-syscall finding or suppression, got %s"
          % perf_hits)

    # --- real tree: socket syscalls confined to the serve/net wrapper ------
    # Every raw socket syscall (and socket-header include) lives in
    # src/pss/serve/net.cpp behind audited suppressions; the rest of the
    # tree — including the metrics exporter and the serve daemon itself —
    # must go through pss::serve::net.
    proc = run_lint(args.lint,
                    ["--root", repo_root, "--rules", "raw-socket-syscall",
                     "--json", report_path, "--quiet"])
    check(proc.returncode == 0,
          "repo tree must be raw-socket-syscall clean, got %d: %s"
          % (proc.returncode, proc.stderr))
    with open(report_path) as f:
        sock_report = json.load(f)
    sock_sup = [s for s in sock_report["suppressed"]
                if s["rule"] == "raw-socket-syscall"]
    check(len(sock_sup) > 0 and
          all(s["file"] == "src/pss/serve/net.cpp" for s in sock_sup),
          "all raw-socket-syscall suppressions must live in "
          "src/pss/serve/net.cpp, got %s"
          % sorted({s["file"] for s in sock_sup}))

    # --- real tree: property code never seeds its own RNGs -----------------
    # The harness and every tests/test_prop_*.cpp property derive all draws
    # from the (seed, case) Philox stream — no literal-seeded RNGs, no
    # <random> engines, and no suppressions: the printed PSS_PROP_SEED
    # repro line must fully determine a failing case.
    proc = run_lint(args.lint,
                    ["--root", repo_root, "--rules", "prop-seed",
                     "--json", report_path, "--quiet"])
    check(proc.returncode == 0,
          "repo prop code must be prop-seed clean, got %d: %s"
          % (proc.returncode, proc.stderr))
    with open(report_path) as f:
        prop_report = json.load(f)
    check(not any(s["rule"] == "prop-seed" for s in prop_report["suppressed"]),
          "prop code must not need prop-seed suppressions, got %s"
          % [(s["file"], s["line"]) for s in prop_report["suppressed"]
             if s["rule"] == "prop-seed"])

    # --- usage errors: exit 2 ----------------------------------------------
    proc = run_lint(args.lint, ["--root", args.fixtures,
                                "--rules", "no-such-rule"])
    check(proc.returncode == 2, "unknown --rules value should exit 2")
    proc = run_lint(args.lint,
                    ["--root", os.path.join(args.work, "does-not-exist")])
    check(proc.returncode == 2, "missing --root should exit 2")

    if FAILURES:
        print("%d check(s) failed" % len(FAILURES), file=sys.stderr)
        return 1
    print("test_pss_lint: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
