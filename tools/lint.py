#!/usr/bin/env python3
"""Repo-specific lint rules that grep can prove.

Rules (each reported as ``file:line: [rule-id] message``):

  naive-call     `_naive` oracles are test-only reference implementations;
                 no call may appear in src/, examples/ or bench/.  The
                 definitions live in src/model/trace* (allowlisted).
  raw-mutex      all locking goes through hyperrec::Mutex and friends
                 (support/thread_annotations.hpp) so it is capability-
                 annotated and lock-order validated; raw std lock types are
                 banned in src/ outside the two wrapper files.
  naked-new      no naked `new` / `delete` expressions in src/ — ownership
                 is unique_ptr/shared_ptr/containers.  lock_order.cpp's
                 immortal singleton is the one documented exception.
  hot-loop-alloc no `std::vector` construction inside regions fenced with
                 `// lint: hot-loop begin` ... `// lint: hot-loop end`
                 (the SA/GA/coordinate-descent inner loops — ROADMAP item
                 3's allocation audit, enforced).
  word-kernel    word algebra goes through the runtime-dispatched kernel
                 layer (support/bitset_kernels.hpp) — raw
                 `__builtin_popcount*` / `std::popcount` calls are banned
                 in src/, examples/ and bench/ outside that layer, so hot
                 loops cannot quietly fork from the dispatched kernels
                 (use kernels::popcount_word for one-off words).
  cost-sentinel  the DP "unreachable" sentinel lives only in
                 support/cost_math.hpp (kCostInfinity): no other file may
                 define a const Cost from std::numeric_limits<Cost>::max()
                 or alias kCostInfinity under a local name.  Running-minimum
                 initialisers (non-const `Cost best = ...max()`) are fine.

Run from anywhere: `python3 tools/lint.py` (add `--root DIR` to lint a
different tree, `--self-test` to prove every rule fires on a seeded
fixture tree).  Exit code 0 = clean, 1 = violations, 2 = usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

# The one home of the Cost sentinel.
COST_SENTINEL_HOME = "src/support/cost_math.hpp"

# Relative paths (posix) allowed to hold raw std lock types.
RAW_MUTEX_ALLOWLIST = {
    "src/support/thread_annotations.hpp",
    "src/support/lock_order.hpp",
    "src/support/lock_order.cpp",
}

# Relative paths allowed a naked new/delete (each needs a comment in the
# file explaining why; see lock_order.cpp's immortal-singleton note).
NAKED_NEW_ALLOWLIST = {
    "src/support/lock_order.cpp",
}

# `_naive` definitions live here; everything else may not mention them.
NAIVE_DEF_PREFIX = "src/model/trace"

# The one home for raw popcount intrinsics (the kernel layer itself).
WORD_KERNEL_ALLOWLIST = {
    "src/support/bitset_kernels.hpp",
    "src/support/bitset_kernels.cpp",
}

RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"lock_guard|unique_lock|shared_lock|scoped_lock|condition_variable)\b"
)
NAIVE_RE = re.compile(r"\w*_naive\b")
NEW_RE = re.compile(r"\bnew\b\s*(?:\(|[A-Za-z_:])")
DELETE_RE = re.compile(r"\bdelete\b\s*(?:\[\s*\]\s*)?[A-Za-z_:(*]")
VECTOR_RE = re.compile(r"\bstd::vector\s*<")
POPCOUNT_RE = re.compile(r"__builtin_popcount\w*|\bstd::popcount\b")
COST_SENTINEL_RE = re.compile(
    r"\b(?:(?:static|inline)\s+)*(?:constexpr|const)\s+"
    r"(?:(?:static|inline)\s+)*(?:hyperrec::)?(?:Cost|auto)\s+\w+\s*"
    r"(?:=|\{)\s*"
    r"(?:std::numeric_limits\s*<\s*Cost\s*>\s*::\s*max\b|"
    r"kCostInfinity\s*[;}])"
)

HOT_LOOP_BEGIN = "lint: hot-loop begin"
HOT_LOOP_END = "lint: hot-loop end"

STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'')


def strip_code_line(line: str) -> str:
    """Removes string/char literals and // comments so the rules match
    code, not prose.  (Block comments are handled by the caller.)"""
    line = STRING_RE.sub('""', line)
    cut = line.find("//")
    if cut >= 0:
        line = line[:cut]
    return line


def code_lines(text: str):
    """Yields (1-based line number, comment/string-stripped code)."""
    in_block = False
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                yield number, ""
                continue
            line = line[end + 2:]
            in_block = False
        # Strip any /* ... */ runs (possibly several; possibly unclosed).
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " + line[end + 2:]
        yield number, strip_code_line(line)


class Violation:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self, root: Path) -> str:
        try:
            shown = self.path.relative_to(root)
        except ValueError:
            shown = self.path
        return f"{shown}:{self.line}: [{self.rule}] {self.message}"


def lint_file(path: Path, rel: str, violations: list[Violation]) -> None:
    text = path.read_text(encoding="utf-8", errors="replace")
    in_src = rel.startswith("src/")
    check_naive = not rel.startswith(NAIVE_DEF_PREFIX)
    check_mutex = in_src and rel not in RAW_MUTEX_ALLOWLIST
    check_new = in_src and rel not in NAKED_NEW_ALLOWLIST
    check_popcount = rel not in WORD_KERNEL_ALLOWLIST
    check_sentinel = rel != COST_SENTINEL_HOME

    # Raw-line scan for the hot-loop fences (they live in comments).
    fenced: set[int] = set()
    depth = 0
    for number, raw in enumerate(text.splitlines(), start=1):
        if HOT_LOOP_BEGIN in raw:
            depth += 1
            continue
        if HOT_LOOP_END in raw:
            depth = max(0, depth - 1)
            continue
        if depth > 0:
            fenced.add(number)

    for number, code in code_lines(text):
        if not code:
            continue
        if check_naive and NAIVE_RE.search(code):
            violations.append(Violation(
                path, number, "naive-call",
                "_naive oracles are test-only; call the indexed/stats "
                "variant instead"))
        if check_mutex and RAW_MUTEX_RE.search(code):
            violations.append(Violation(
                path, number, "raw-mutex",
                "use hyperrec::Mutex/MutexLock/CondVar from "
                "support/thread_annotations.hpp"))
        if check_new and in_src:
            stripped = code.replace("= delete", "")
            if NEW_RE.search(stripped) or DELETE_RE.search(stripped):
                violations.append(Violation(
                    path, number, "naked-new",
                    "no naked new/delete in src/ — use smart pointers or "
                    "containers"))
        if check_popcount and POPCOUNT_RE.search(code):
            violations.append(Violation(
                path, number, "word-kernel",
                "raw popcount outside support/bitset_kernels — use the "
                "kernels:: wrappers (kernels::popcount_word for one word)"))
        if check_sentinel and COST_SENTINEL_RE.search(code):
            violations.append(Violation(
                path, number, "cost-sentinel",
                "local Cost sentinel — use kCostInfinity from "
                "support/cost_math.hpp"))
        if in_src and number in fenced and VECTOR_RE.search(code):
            violations.append(Violation(
                path, number, "hot-loop-alloc",
                "no std::vector construction inside a `lint: hot-loop` "
                "fence — hoist the buffer out of the loop"))


def lint_tree(root: Path) -> list[Violation]:
    violations: list[Violation] = []
    for top in ("src", "examples", "bench"):
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                rel = path.relative_to(root).as_posix()
                lint_file(path, rel, violations)
    return violations


# --- self-test fixtures: one seeded violation per rule -----------------------

FIXTURES = {
    # rule id -> (relative path, file contents, expected violation line(s))
    "naive-call": (
        "src/core/bad_naive.cpp",
        "int use() { return helper_naive(0, 1); }\n",
        1,
    ),
    "raw-mutex": (
        "src/core/bad_mutex.cpp",
        "#include <mutex>\nstd::mutex bad;\n",
        2,
    ),
    "naked-new": (
        "src/core/bad_new.cpp",
        "int* leak() { return new int(7); }\n",
        1,
    ),
    "word-kernel": (
        "src/core/bad_popcount.cpp",
        "#include <bit>\n"
        "int count(unsigned long long w) {\n"
        "  return __builtin_popcountll(w) + std::popcount(w);\n"
        "}\n",
        3,
    ),
    "hot-loop-alloc": (
        "src/core/bad_hot.cpp",
        "void f() {\n"
        "  // lint: hot-loop begin\n"
        "  for (int i = 0; i < 8; ++i) {\n"
        "    std::vector<int> scratch(8);\n"
        "  }\n"
        "  // lint: hot-loop end\n"
        "}\n",
        4,
    ),
    "cost-sentinel": (
        "src/core/bad_sentinel.cpp",
        "#include <limits>\n"
        "constexpr Cost kInfinity = std::numeric_limits<Cost>::max() / 4;\n"
        "static const Cost kAlias = kCostInfinity;\n"
        "constexpr auto kUnreachable{std::numeric_limits<Cost>::max()};\n",
        (2, 3, 4),
    ),
}

CLEAN_FIXTURE = (
    "src/core/clean.cpp",
    '#include "support/thread_annotations.hpp"\n'
    "// prose may say std::mutex, std::popcount, new ideas or _naive ones\n"
    "hyperrec::Mutex ok{\"clean\"};\n"
    "void g() {\n"
    "  // lint: hot-loop begin\n"
    "  for (int i = 0; i < 8; ++i) { int x = i; (void)x; }\n"
    "  // lint: hot-loop end\n"
    "  std::vector<int> fine_outside_fence(8);\n"
    "}\n"
    "struct S { S(const S&) = delete; };\n"
    "Cost running_min() { Cost best = std::numeric_limits<Cost>::max();\n"
    "  return best < kCostInfinity ? best : kCostInfinity; }\n",
)


def self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="hyperrec-lint-") as tmp:
        root = Path(tmp)
        for rule, (rel, contents, line) in FIXTURES.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(contents)
        clean_path = root / CLEAN_FIXTURE[0]
        clean_path.parent.mkdir(parents=True, exist_ok=True)
        clean_path.write_text(CLEAN_FIXTURE[1])

        found = lint_tree(root)
        by_file = {}
        for violation in found:
            rel = violation.path.relative_to(root).as_posix()
            by_file.setdefault(rel, []).append(violation)

        for rule, (rel, _contents, lines) in FIXTURES.items():
            hits = [v for v in by_file.get(rel, []) if v.rule == rule]
            for line in lines if isinstance(lines, tuple) else (lines,):
                if any(v.line == line for v in hits):
                    print(f"self-test: {rule}: fired at {rel}:{line} (ok)")
                else:
                    print(f"self-test: {rule}: MISSED expected violation at "
                          f"{rel}:{line}", file=sys.stderr)
                    failures += 1

        clean_rel = CLEAN_FIXTURE[0]
        stray = by_file.get(clean_rel, [])
        if stray:
            for violation in stray:
                print(f"self-test: FALSE POSITIVE "
                      f"{violation.render(root)}", file=sys.stderr)
            failures += 1
        else:
            print("self-test: clean fixture: no false positives (ok)")

    if failures:
        print(f"self-test: FAILED ({failures} problem(s))", file=sys.stderr)
        return 1
    print("self-test: all rules fire exactly as expected")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="prove every rule fires on a seeded fixture")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"lint: no src/ under {root}", file=sys.stderr)
        return 2
    violations = lint_tree(root)
    for violation in violations:
        print(violation.render(root))
    if violations:
        print(f"lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
