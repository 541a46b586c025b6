#!/usr/bin/env python3
"""pss_lint — the repo's determinism static-analysis pass.

The reproduction's headline guarantees (bitwise worker-count-invariant
stochastic STDP, bitwise checkpoint resume, cross-backend equivalence) rest on
source-level invariants that no compiler flag checks:

  nondeterministic-rng   No wall-clock/hardware entropy feeding simulation
                         state: rand()/srand(), std::random_device,
                         time(nullptr)-style seeds, or std::chrono-derived
                         seeds anywhere outside tools/. Every stochastic
                         draw must come from the counter-based Philox
                         streams (src/pss/common/rng.hpp).
  unordered-iteration    No iteration over std::unordered_{map,set,...} in
                         numeric paths — iteration order is
                         implementation-defined, so any sum/update fed by it
                         breaks bitwise reproducibility.
  kernel-rng             Kernel translation units (src/pss/backend/kernels_*,
                         src/pss/engine/) draw randomness exclusively through
                         Philox; <random> engines/distributions are banned
                         there (distribution algorithms are not pinned by the
                         standard, so they are not cross-platform bitwise).
  fp-reassociation       No float-reassociation flags or pragmas
                         (-ffast-math, -Ofast, -fassociative-math, ...)
                         anywhere in the build: the approved SIMD TUs get
                         their speed from -O3 -mavx2 which keeps IEEE
                         semantics. A TU that genuinely needs an exception
                         carries a per-line suppression.
  raw-alloc              No raw new/delete or malloc/free in hot paths
                         (src/pss/backend/, src/pss/engine/): per-launch
                         allocation is both a perf bug (the Engine exists to
                         avoid it) and a determinism hazard once allocators
                         get involved in timing-sensitive code.
  raw-perf-syscall       No raw syscall(SYS_perf_event_open, ...) anywhere,
                         with no allowed site: hardware counters are refused
                         in the containers this runs in, so run time is
                         attributed by wall-clock phase spans only.
  raw-socket-syscall     No raw BSD socket syscalls (::socket, ::bind,
                         ::connect, ::recv, ::send, ...) or socket-header
                         includes anywhere outside src/pss/serve/net.cpp
                         (which carries the audited suppressions): deadlines,
                         EINTR retries, partial-IO loops, and the no-socket
                         platform fallback live in that one wrapper, so every
                         other TU gets them for free and none can wedge on a
                         slow peer.

  prop-seed              Property-test code (src/pss/prop/ and
                         tests/test_prop_*.cpp) never seeds its own RNGs
                         with literals and never uses <random> engines:
                         every draw flows from the harness's (seed, case)
                         Philox stream so a printed PSS_PROP_SEED=...
                         PSS_PROP_CASE=... line replays the exact case.

Suppressions: append `// pss-lint: allow(<rule>[,<rule>...])` (or `# ...` in
CMake/script files) to the offending line. Suppressions are recorded in the
JSON report so reviewers can audit them; an unknown rule name in a
suppression is itself an error.

Usage:
  pss_lint.py [--root DIR] [--json PATH] [--rules r1,r2] [--list-rules]
              [--quiet]

Exit codes: 0 = clean, 1 = violations found, 2 = usage/internal error.
The JSON report (schema `pss.lint.v1`) lists violations, suppressions and
per-rule counts; tests/lint_fixtures/ pins the behaviour of every rule.
"""

import argparse
import json
import os
import re
import sys

SCHEMA = "pss.lint.v1"

# Directories never scanned (build trees, VCS, outputs, and the seeded-
# violation fixture tree that tests the linter itself).
SKIP_DIRS = {".git", "out", "__pycache__", "lint_fixtures"}
SKIP_DIR_PREFIXES = ("build",)

CXX_EXTS = (".cpp", ".hpp", ".cc", ".h", ".cu", ".cuh")
BUILD_FILES = ("CMakeLists.txt",)
BUILD_EXTS = (".cmake", ".json")

# Numeric paths: anything whose FP results feed learning/inference state.
NUMERIC_PATHS = (
    "src/pss/backend/",
    "src/pss/engine/",
    "src/pss/synapse/",
    "src/pss/neuron/",
    "src/pss/encoding/",
    "src/pss/network/",
    "src/pss/learning/",
    "src/pss/fixedpoint/",
    "src/pss/baseline/",
)

# Hot paths: the launch/dispatch layer where allocation is a per-step cost.
HOT_PATHS = ("src/pss/backend/", "src/pss/engine/")

# Kernel TUs: Philox-only territory.
KERNEL_PATHS = ("src/pss/backend/", "src/pss/engine/")

SUPPRESS_RE = re.compile(r"pss-lint:\s*allow\(([a-z0-9_,\- ]+)\)")

RULE_DOCS = {
    "nondeterministic-rng":
        "wall-clock/hardware entropy outside tools/ (rand, srand, "
        "std::random_device, time(nullptr) seeds, chrono-derived seeds)",
    "unordered-iteration":
        "iteration over std::unordered_* containers in numeric paths",
    "kernel-rng":
        "<random> engines/distributions in kernel TUs (Philox only)",
    "fp-reassociation":
        "float-reassociation flags/pragmas (-ffast-math, -Ofast, ...)",
    "raw-alloc":
        "raw new/delete/malloc/free in hot paths (backend/, engine/)",
    "raw-perf-syscall":
        "raw perf_event_open syscall (no allowed site)",
    "raw-socket-syscall":
        "raw BSD socket syscall or socket-header include outside the "
        "pss/serve/net.cpp wrapper",
    "prop-seed":
        "hard-coded RNG seed or <random> engine in property-test code "
        "(src/pss/prop/, tests/test_prop_*.cpp); draw through prop::Source "
        "so PSS_PROP_SEED/PSS_PROP_CASE repros replay",
}


def is_cxx(rel):
    return rel.endswith(CXX_EXTS)


def is_build_file(rel):
    base = os.path.basename(rel)
    return base in BUILD_FILES or base.endswith(BUILD_EXTS)


def under(rel, prefixes):
    return any(rel.startswith(p) for p in prefixes)


def strip_cxx_noncode(text):
    """Blanks comments and string/char literals, preserving line structure.

    Rule regexes then run on code only, so `// old rand() call` or a log
    message mentioning "malloc" never trips a rule. Suppression comments are
    read from the *raw* lines separately.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            elif c == "\n":  # unterminated; be lenient
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


# --- rule implementations -------------------------------------------------
# Each checker yields (line_number, rule, message, raw_line) tuples. `code`
# is the comment/string-stripped text for C++ files, raw text otherwise.

RNG_PATTERNS = [
    (re.compile(r"(?<![\w:])s?rand\s*\("),
     "libc rand()/srand() is not reproducible; draw from a Philox stream"),
    (re.compile(r"std\s*::\s*random_device"),
     "std::random_device is hardware entropy; seeds must be fixed or "
     "config-provided"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time(...) seeding is run-dependent; seeds must be fixed or "
     "config-provided"),
]
CHRONO_SEED_RE = re.compile(r"std\s*::\s*chrono")
SEED_CONTEXT_RE = re.compile(r"seed", re.IGNORECASE)


def check_nondeterministic_rng(rel, code_lines):
    if rel.startswith("tools/"):
        return
    for ln, line in enumerate(code_lines, 1):
        for pat, msg in RNG_PATTERNS:
            if pat.search(line):
                yield ln, "nondeterministic-rng", msg
        if CHRONO_SEED_RE.search(line) and SEED_CONTEXT_RE.search(line):
            yield (ln, "nondeterministic-rng",
                   "std::chrono-derived seed is run-dependent; seeds must be "
                   "fixed or config-provided")


UNORDERED_DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;=]*?>\s*&?\s*"
    r"(\w+)\s*[;={(,)]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;]*?[:\s&*]\s*:\s*(\w+)\s*\)")
ITER_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*(?:begin|cbegin|rbegin)\s*\(")


def check_unordered_iteration(rel, code_lines):
    if not under(rel, NUMERIC_PATHS):
        return
    unordered_names = set()
    for line in code_lines:
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered_names.add(m.group(1))
    if not unordered_names:
        return
    msg = ("iteration over std::unordered_* '{0}': order is "
           "implementation-defined, so any numeric state it feeds is not "
           "bitwise reproducible — use std::map or sort keys first")
    for ln, line in enumerate(code_lines, 1):
        m = RANGE_FOR_RE.search(line)
        if m and m.group(1) in unordered_names:
            yield ln, "unordered-iteration", msg.format(m.group(1))
            continue
        m = ITER_CALL_RE.search(line)
        if m and m.group(1) in unordered_names:
            yield ln, "unordered-iteration", msg.format(m.group(1))


KERNEL_RNG_RE = re.compile(
    r"std\s*::\s*(mt19937(?:_64)?|minstd_rand0?|ranlux\w+|knuth_b|"
    r"default_random_engine|uniform_int_distribution|"
    r"uniform_real_distribution|normal_distribution|bernoulli_distribution|"
    r"poisson_distribution|discrete_distribution)")


def check_kernel_rng(rel, code_lines):
    if not under(rel, KERNEL_PATHS):
        return
    for ln, line in enumerate(code_lines, 1):
        m = KERNEL_RNG_RE.search(line)
        if m:
            yield (ln, "kernel-rng",
                   "std::" + m.group(1) + " in a kernel TU: kernels draw "
                   "randomness only via pss::Philox (counter-based, "
                   "presentation-indexed) so draws replay bit for bit")


FP_FLAG_RE = re.compile(
    r"-ffast-math|-Ofast|-funsafe-math-optimizations|-fassociative-math|"
    r"-freciprocal-math|-ffp-contract\s*=\s*fast|/fp:fast")
FP_PRAGMA_RE = re.compile(
    r"#\s*pragma\s+GCC\s+optimize|__attribute__\s*\(\s*\(\s*optimize|"
    r"#\s*pragma\s+float_control|#\s*pragma\s+STDC\s+FP_CONTRACT\s+ON")


def check_fp_reassociation(rel, code_lines, raw_lines):
    for ln, line in enumerate(code_lines, 1):
        if FP_PRAGMA_RE.search(line):
            yield (ln, "fp-reassociation",
                   "optimization pragma can enable FP reassociation; use "
                   "per-file COMPILE_OPTIONS with IEEE-safe flags instead")
    for ln, line in enumerate(raw_lines, 1):
        # In build files the flag may sit inside a quoted string; scan the
        # raw line but ignore pure-comment lines (cmake '#', json has none).
        stripped = line.lstrip()
        if stripped.startswith("#") and "pss-lint" not in stripped:
            continue
        if FP_FLAG_RE.search(line):
            yield (ln, "fp-reassociation",
                   "float-reassociation flag: breaks IEEE-exact kernel "
                   "equivalence (the approved SIMD TUs use -O3 -mavx2, "
                   "which keeps IEEE semantics)")


RAW_ALLOC_RE = re.compile(
    r"(?<![\w:])(new\b(?![>\s]*[>)])|malloc\s*\(|calloc\s*\(|"
    r"realloc\s*\(|free\s*\(|delete\b)")
# Not allocations: deleted special members and #include <new>.
DELETED_MEMBER_RE = re.compile(r"=\s*delete\s*;?")
INCLUDE_RE = re.compile(r"^\s*#\s*include")


def check_raw_alloc(rel, code_lines):
    if not under(rel, HOT_PATHS):
        return
    for ln, line in enumerate(code_lines, 1):
        if INCLUDE_RE.match(line):
            continue
        m = RAW_ALLOC_RE.search(DELETED_MEMBER_RE.sub("", line))
        if m:
            yield (ln, "raw-alloc",
                   "raw '" + m.group(1).strip() + "' in a hot path: use "
                   "containers/make_unique sized at construction; per-launch "
                   "allocation is the overhead the Engine exists to avoid")


PERF_SYSCALL_RE = re.compile(r"\b(?:SYS|__NR)_perf_event_open\b")

# Global-scope-qualified socket-family calls only: `(?<![\w>])` keeps
# qualified member definitions (`BaselineNetwork::connect(...)`) and wrapper
# calls (`net::connect_loopback(...)`) out. ::poll/::close/::fcntl are
# deliberately absent — they are general fd plumbing, not socket setup/IO.
SOCKET_CALL_RE = re.compile(
    r"(?<![\w>])::\s*(socket|socketpair|bind|listen|accept4?|connect|"
    r"recv(?:from|msg)?|send(?:to|msg)?|setsockopt|getsockopt|getsockname|"
    r"getpeername|shutdown)\s*\(")
SOCKET_HEADER_RE = re.compile(
    r"#\s*include\s*<(?:sys/socket\.h|sys/un\.h|netinet/[\w.]+|"
    r"arpa/inet\.h|netdb\.h)>")


def check_raw_socket_syscall(rel, code_lines):
    for ln, line in enumerate(code_lines, 1):
        m = SOCKET_CALL_RE.search(line)
        if m:
            yield (ln, "raw-socket-syscall",
                   "raw ::" + m.group(1) + " syscall: do socket IO through "
                   "pss::serve::net (listen/connect/read_frame/write_frame) "
                   "so deadlines, EINTR handling, and the no-socket platform "
                   "fallback stay in the one audited wrapper "
                   "(src/pss/serve/net.cpp)")
        elif SOCKET_HEADER_RE.search(line):
            yield (ln, "raw-socket-syscall",
                   "socket header include: only src/pss/serve/net.cpp talks "
                   "to the BSD socket API; use pss::serve::net instead")


# Property-test territory: the harness derives every draw from the (seed,
# case) Philox stream so a printed PSS_PROP_SEED/PSS_PROP_CASE line replays
# the exact failing case. A literal-seeded RNG (or a <random> engine, whose
# algorithms the standard does not pin) inside a property breaks that replay
# contract silently — the repro line no longer determines the values drawn.
PROP_PATHS = ("src/pss/prop/",)
PROP_TEST_RE = re.compile(r"^tests/test_prop_\w+\.(?:cpp|cc)$")
PROP_LITERAL_SEED_RE = re.compile(
    r"\b(CounterRng|SequentialRng|Philox)\b(?:\s+\w+)?\s*[({]\s*"
    r"(?:0[xX][0-9a-fA-F']+|\d[\d']*)\b")


def in_prop_scope(rel):
    return under(rel, PROP_PATHS) or PROP_TEST_RE.match(rel)


def check_prop_seed(rel, code_lines):
    if not in_prop_scope(rel):
        return
    for ln, line in enumerate(code_lines, 1):
        m = PROP_LITERAL_SEED_RE.search(line)
        if m:
            yield (ln, "prop-seed",
                   "literal-seeded " + m.group(1) + " in property code: "
                   "derive draws from the prop::Source (s.bits/range/...) or "
                   "prop::case_source so the printed PSS_PROP_SEED/"
                   "PSS_PROP_CASE repro replays this exact case")
            continue
        m = KERNEL_RNG_RE.search(line)
        if m:
            yield (ln, "prop-seed",
                   "std::" + m.group(1) + " in property code: <random> "
                   "algorithms are not pinned by the standard, so cases "
                   "would not replay bit for bit across platforms — draw "
                   "through prop::Source instead")


def check_raw_perf_syscall(rel, code_lines):
    for ln, line in enumerate(code_lines, 1):
        if PERF_SYSCALL_RE.search(line):
            yield (ln, "raw-perf-syscall",
                   "raw perf_event_open syscall: hardware counters are "
                   "refused in the target containers; attribute time with "
                   "the wall-clock phase spans (pss::obs trace/metrics)")


# --- driver ---------------------------------------------------------------

def scan_file(root, rel, active_rules):
    path = os.path.join(root, rel)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        raise RuntimeError("cannot read " + rel + ": " + str(e))
    raw_lines = text.split("\n")

    findings = []
    if is_cxx(rel):
        code_lines = strip_cxx_noncode(text).split("\n")
        checks = [
            lambda: check_nondeterministic_rng(rel, code_lines),
            lambda: check_unordered_iteration(rel, code_lines),
            lambda: check_kernel_rng(rel, code_lines),
            lambda: check_fp_reassociation(rel, code_lines, raw_lines),
            lambda: check_raw_alloc(rel, code_lines),
            lambda: check_raw_perf_syscall(rel, code_lines),
            lambda: check_raw_socket_syscall(rel, code_lines),
            lambda: check_prop_seed(rel, code_lines),
        ]
        for chk in checks:
            findings.extend(chk())
    elif is_build_file(rel):
        findings.extend(check_fp_reassociation(rel, [], raw_lines))

    violations, suppressed = [], []
    for ln, rule, msg in findings:
        if rule not in active_rules:
            continue
        raw = raw_lines[ln - 1] if 0 < ln <= len(raw_lines) else ""
        sup = SUPPRESS_RE.search(raw)
        allowed = set()
        if sup:
            allowed = {r.strip() for r in sup.group(1).split(",")}
            unknown = allowed - set(RULE_DOCS)
            if unknown:
                violations.append({
                    "file": rel, "line": ln, "rule": "bad-suppression",
                    "message": "unknown rule in pss-lint suppression: " +
                               ", ".join(sorted(unknown)),
                    "snippet": raw.strip()})
        entry = {"file": rel, "line": ln, "rule": rule, "message": msg,
                 "snippet": raw.strip()}
        if rule in allowed:
            suppressed.append(entry)
        else:
            violations.append(entry)
    return violations, suppressed


def walk_tree(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames
            if d not in SKIP_DIRS and not d.startswith(SKIP_DIR_PREFIXES))
        for name in sorted(filenames):
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            rel = rel.replace(os.sep, "/")
            if is_cxx(rel) or is_build_file(rel):
                yield rel


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=".",
                    help="tree to scan (default: cwd)")
    ap.add_argument("--json", dest="json_path", default="",
                    help="write the pss.lint.v1 report here")
    ap.add_argument("--rules", default="",
                    help="comma-separated subset of rules to run")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress per-violation stderr lines")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in sorted(RULE_DOCS):
            print(rule + ": " + RULE_DOCS[rule])
        return 0

    active = set(RULE_DOCS)
    if args.rules:
        active = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = active - set(RULE_DOCS)
        if unknown:
            print("pss_lint: unknown rule(s): " + ", ".join(sorted(unknown)),
                  file=sys.stderr)
            return 2

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print("pss_lint: not a directory: " + root, file=sys.stderr)
        return 2

    violations, suppressed, files_scanned = [], [], 0
    try:
        for rel in walk_tree(root):
            files_scanned += 1
            v, s = scan_file(root, rel, active)
            violations.extend(v)
            suppressed.extend(s)
    except RuntimeError as e:
        print("pss_lint: " + str(e), file=sys.stderr)
        return 2

    counts = {}
    for v in violations:
        counts[v["rule"]] = counts.get(v["rule"], 0) + 1
    report = {
        "schema": SCHEMA,
        "root": root,
        "rules": sorted(active),
        "files_scanned": files_scanned,
        "violations": violations,
        "suppressed": suppressed,
        "counts": counts,
        "status": "fail" if violations else "pass",
    }
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")

    if not args.quiet:
        for v in violations:
            print("%s:%d: [%s] %s" % (v["file"], v["line"], v["rule"],
                                      v["message"]), file=sys.stderr)
    summary = ("pss_lint: %d file(s), %d violation(s), %d suppressed"
               % (files_scanned, len(violations), len(suppressed)))
    print(summary, file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
