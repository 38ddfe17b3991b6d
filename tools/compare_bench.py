#!/usr/bin/env python3
"""Compare bench --smoke wall times against bench/BENCH_BASELINE.json.

Runs every bench executable found in <build-dir>/bench in smoke mode,
measures wall time, and flags regressions of more than --threshold
(default 25%) against the recorded baseline.  Small absolute drifts are
ignored (--min-delta, default 0.05 s) because sub-100ms smoke runs are
dominated by process start-up noise on shared CI hardware.

Intended as a *non-blocking* CI step: the exit code is 1 when a regression
is flagged so the step shows red, but the workflow marks it
continue-on-error.

A second, same-session A/B mode compares two build trees of the *same
machine and day* directly — the measurement the baseline's own caveat says
to prefer.  Rounds are interleaved (before, after, before, after, ...) so
neither side monopolises a warm cache or a quiet scheduler slice, and the
per-side minimum over rounds is reported (minimum, not mean: on a shared
1-core box the distribution is one-sided noise over a true floor).
Google-Benchmark benches (bench_solver_scaling) are recognised and run
with --benchmark_format=json so the A/B report covers individual BM_*
timings rather than process wall time.

A third mode A/B-tests perfbench workloads.  With --workload, --before
and --after name two *checkouts* (repository roots, e.g. the parent commit
and the change, each with identical perfbench/ code); the tool runs
`perfbench/run.py` in each for BENCHMARK.json's `run_seconds`, in pairs
whose order alternates (before/after, then after/before: ABBA), appends
every run to .bench_ab/<workload>-seed<S>-trace<T>.jsonl, and prints, per
metric, each side's median and quartiles, how many of the complete pairs
the change wins (by the metric's `better` direction in BENCHMARK.json; ties
count for neither, and a pair with a failed run counts as no win), the
parent's spread (IQR as a % of its median) against the metric's `bound`,
and a verdict:

  gain         wins >= 9/10 of the pairs and the medians differ by more than
               the parent's IQR, in the better direction;
  gain withheld
               the same, but a run exited non-zero or reported `correct:
               false`, or the change failed a larger share of its
               operations than the parent;
  WORSE        the change's median is worse than the parent's by more than
               the bound;
  unresolved   the parent's IQR exceeds the bound and not every run of the
               change beats every run of the parent;
  within bound otherwise.

A run that exited non-zero or reported `correct: false` contributes no
metric values.  Per-layer metrics (traced runs) get the same statistics
without a verdict.  Failed/attempted operation counts are summed per side,
and every failed or incorrect run is listed.  --from-log reports on earlier
logs (several seeds at once) without running anything.

Usage:
  tools/compare_bench.py --build-dir build              # compare
  tools/compare_bench.py --build-dir build --update     # rewrite baseline
  tools/compare_bench.py --before build-old --after build-new \
      [--rounds 5] [--benches bench_streaming,bench_solver_scaling]
  tools/compare_bench.py --before ../parent --after . --workload batch_long \
      --pairs 10 --seed 1 [--trace 1]
  tools/compare_bench.py --from-log .bench_ab/batch_long-seed1-trace0.jsonl \
      .bench_ab/batch_long-seed29-trace0.jsonl
  tools/compare_bench.py --self-test
"""

import argparse
import json
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = REPO_ROOT / "BENCHMARK.json"
# A perfbench run (its first build included) still going after this many
# seconds is abandoned and logged as failed.
RUN_TIMEOUT_S = 3600

DESCRIPTION = (
    "Smoke-mode (--smoke) baseline per bench: wall time and captured "
    "stdout. Trajectory anchor for future performance PRs; timings "
    "measured on the CI container, 1 core. CAUTION: this box is shared "
    "and absolute timings drift 20%+ between recording days — compare "
    "performance within one session (before/after builds of the same "
    "day), not against these historical numbers; tools/compare_bench.py "
    "applies a relative threshold plus an absolute min-delta for exactly "
    "this reason."
)


def run_bench(executable: pathlib.Path) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [str(executable), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    wall = time.monotonic() - start
    return {
        "exit_code": proc.returncode,
        "wall_seconds": round(wall, 3),
        "stdout": proc.stdout.rstrip("\n").split("\n") if proc.stdout else [],
    }


# Benches driven by Google Benchmark: A/B mode runs these with
# --benchmark_format=json and compares per-BM_* real times instead of
# process wall time.
GBENCH_BENCHES = {"bench_solver_scaling"}


def wall_seconds(executable: pathlib.Path, extra_args: list) -> float:
    start = time.monotonic()
    proc = subprocess.run(
        [str(executable)] + extra_args,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{executable} exited {proc.returncode}:\n{proc.stderr}")
    return time.monotonic() - start


def gbench_times(executable: pathlib.Path, bench_filter: str) -> dict:
    """Runs a Google-Benchmark binary, returns {benchmark name: seconds}."""
    cmd = [str(executable), "--benchmark_format=json"]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=1200)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{executable} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    times = {}
    for entry in report.get("benchmarks", []):
        if "real_time" not in entry:  # error / aggregate-only entries
            continue
        scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[
            entry.get("time_unit", "ns")]
        times[entry["name"]] = entry["real_time"] * scale
    return times


def merge_min(totals: dict, sample: dict) -> None:
    for name, seconds in sample.items():
        if name not in totals or seconds < totals[name]:
            totals[name] = seconds


def run_ab(args) -> int:
    before_dir = pathlib.Path(args.before) / "bench"
    after_dir = pathlib.Path(args.after) / "bench"
    if args.benches:
        names = args.benches.split(",")
    else:
        names = sorted(
            p.name for p in after_dir.glob("bench_*")
            if p.is_file() and p.stat().st_mode & 0o111
            and (before_dir / p.name).is_file()
        )
    if not names:
        print("no common bench executables to A/B", file=sys.stderr)
        return 2

    # {report row: [before seconds, after seconds]}; min over rounds.
    before_times, after_times = {}, {}
    for bench in names:
        before_exe = before_dir / bench
        after_exe = after_dir / bench
        for exe, side in ((before_exe, "before"), (after_exe, "after")):
            if not exe.is_file():
                print(f"missing executable: {exe}", file=sys.stderr)
                return 2
        for _ in range(args.rounds):
            if bench in GBENCH_BENCHES:
                merge_min(before_times,
                          {f"{bench}:{k}": v for k, v in
                           gbench_times(before_exe, args.filter).items()})
                merge_min(after_times,
                          {f"{bench}:{k}": v for k, v in
                           gbench_times(after_exe, args.filter).items()})
            else:
                merge_min(before_times,
                          {bench: wall_seconds(before_exe, ["--smoke"])})
                merge_min(after_times,
                          {bench: wall_seconds(after_exe, ["--smoke"])})

    print(f"A/B over {args.rounds} interleaved rounds "
          f"(min per side; negative = faster after):")
    width = max(len(name) for name in after_times)
    for name in sorted(after_times):
        if name not in before_times:
            continue
        before = before_times[name]
        after = after_times[name]
        change = (after / before - 1.0) * 100.0 if before > 0 else 0.0
        print(f"  {name:<{width}}  {before * 1e3:10.3f}ms -> "
              f"{after * 1e3:10.3f}ms  {change:+7.1f}%")
    return 0


# --- perfbench A/B -----------------------------------------------------------

def quartiles(values: list) -> tuple:
    """(q1, median, q3) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        return (float("nan"),) * 3

    def at(fraction: float) -> float:
        position = fraction * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return at(0.25), at(0.5), at(0.75)


def load_benchmark() -> tuple:
    """(run seconds, {end-to-end name: spec}, {per-layer name: spec}) from
    BENCHMARK.json."""
    spec = json.loads(BENCHMARK.read_text())
    return (spec["run_seconds"],
            {m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec.get("per_layer", [])})


def run_perfbench(checkout: pathlib.Path, args, seconds: float) -> dict:
    """One perfbench run in `checkout`; returns its log record."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    try:
        proc = subprocess.run(command, cwd=checkout, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = None, ""
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"checkout": str(checkout), "workload": args.workload,
            "seed": args.seed, "seconds": seconds, "trace": args.trace,
            "time": started, "exit": code,
            "notes": [line[2:] for line in lines if line.startswith("# ")],
            "result": result}


def ab_pairs(args, seconds: float) -> list:
    """Runs args.pairs ABBA pairs; logs and returns every run record."""
    sides = {"before": pathlib.Path(args.before).resolve(),
             "after": pathlib.Path(args.after).resolve()}
    log_path = (REPO_ROOT / ".bench_ab" /
                f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl")
    log_path.parent.mkdir(parents=True, exist_ok=True)
    records = []
    # Pair numbers restart with every invocation; the batch tells apart
    # pairs appended to one log by different invocations.
    batch = time.strftime("%Y-%m-%dT%H:%M:%S")
    with log_path.open("a") as log:
        for pair in range(args.pairs):
            order = ("before", "after") if pair % 2 == 0 else ("after", "before")
            for position, side in enumerate(order):
                record = run_perfbench(sides[side], args, seconds)
                record.update({"side": side, "batch": batch, "pair": pair,
                               "position": position})
                log.write(json.dumps(record) + "\n")
                log.flush()
                records.append(record)
                result = record["result"] or {}
                print(f"pair {pair + 1}/{args.pairs} {side:<6} exit "
                      f"{record['exit']} correct {result.get('correct')}",
                      file=sys.stderr)
    print(f"runs logged to {log_path}", file=sys.stderr)
    return records


def run_ok(record: dict) -> bool:
    """True when the run exited 0 and reported correct results."""
    return (record.get("exit") == 0
            and bool((record.get("result") or {}).get("correct")))


def metric_value(record: dict, name: str):
    """The metric's value, or None when the run failed or lacks it."""
    if not run_ok(record):
        return None
    entry = record["result"].get("metrics", {}).get(name)
    return None if entry is None else entry["value"]


def summarize_ab(records: list, end_to_end: dict, per_layer: dict) -> list:
    """Report lines for the runs in `records` (any number of pairs)."""
    pairs = {}
    for record in records:
        key = (record.get("batch"), record.get("workload"),
               record.get("seed"), record.get("trace"), record.get("pair"))
        pairs.setdefault(key, {})[record["side"]] = record
    complete = [p for p in pairs.values() if "before" in p and "after" in p]
    lines = [f"{len(complete)} complete pairs "
             f"({len(records)} runs; median [q1, q3]; wins = pairs the "
             "change wins, ties count for neither)"]

    failed_share = {}
    withheld = None
    for side in ("before", "after"):
        runs = [r for r in records if r["side"] == side]
        attempted = sum((r.get("result") or {}).get("attempted", 0)
                        for r in runs)
        failed = sum((r.get("result") or {}).get("failed", 0) for r in runs)
        failed_share[side] = failed / attempted if attempted else 0.0
        lines.append(f"{side}: {len(runs)} runs, failed/attempted "
                     f"{failed}/{attempted}")
        for r in runs:
            if not run_ok(r):
                withheld = "a run failed or was incorrect"
                lines.append(f"  INCORRECT RUN: {side} workload "
                             f"{r.get('workload')} seed {r.get('seed')} pair "
                             f"{r.get('pair')} exit {r.get('exit')}")
    # The sides attempt different numbers of operations in a fixed run
    # length, so their failed shares are compared, not their counts.
    if failed_share["after"] > failed_share["before"]:
        withheld = "more failed operations than the parent"

    names = list(end_to_end) + [n for n in per_layer if n not in end_to_end]
    for name in names:
        spec = end_to_end.get(name) or per_layer[name]
        lower_better = spec.get("better", "lower") == "lower"
        values = [(metric_value(p["before"], name),
                   metric_value(p["after"], name)) for p in complete]
        before = [b for b, _ in values if b is not None]
        after = [a for _, a in values if a is not None]
        if not before and not after:
            continue
        if not before or not after:
            lines.append(f"{name:<34} reported by {len(before)} parent and "
                         f"{len(after)} change runs: not compared")
            continue
        b_q1, b_med, b_q3 = quartiles(before)
        a_q1, a_med, a_q3 = quartiles(after)

        def better(x, y):
            return x < y if lower_better else x > y

        # Every complete pair counts; one without both values is no win.
        wins = sum(1 for b, a in values
                   if b is not None and a is not None and better(a, b))
        change = (a_med / b_med - 1.0) * 100.0 if b_med else 0.0
        iqr = b_q3 - b_q1
        spread = iqr / abs(b_med) if b_med else 0.0
        row = (f"{name:<34} {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}] -> "
               f"{a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}] {change:+.1f}% "
               f"wins {wins}/{len(complete)} parent IQR {spread * 100:.1f}%")
        if name in end_to_end:
            bound = spec["bound"]
            worse = (a_med - b_med) / abs(b_med) if b_med else 0.0
            if not lower_better:
                worse = -worse
            every_run_better = all(better(a, b) for a in after for b in before)
            if (wins * 10 >= 9 * len(complete) and abs(a_med - b_med) > iqr
                    and better(a_med, b_med)):
                verdict = (f"gain withheld ({withheld})" if withheld
                           else "gain")
            elif worse > bound:
                verdict = "WORSE"
            elif spread > bound and not every_run_better:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            row += f" (bound {bound * 100:.0f}%): {verdict}"
        lines.append(row)
    return lines


def read_logs(paths: list) -> list:
    records = []
    for path in paths:
        for line in pathlib.Path(path).read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                record.setdefault("batch", path)
                records.append(record)
    return records


def canned_run(side: str, pair: int, p50: float, rss: float,
               correct: bool = True, failed: int = 0) -> dict:
    metrics = {"latency_p50_ms": {"value": p50, "unit": "ms"},
               "peak_rss_mb": {"value": rss, "unit": "MiB"},
               "model.instance_build_us": {"value": p50 * 100, "unit": "us"}}
    return {"side": side, "pair": pair, "workload": "w", "seed": 1,
            "trace": 0, "exit": 0 if correct else 1,
            "result": {"correct": correct, "attempted": 10,
                       "failed": failed if correct else 1,
                       "metrics": metrics}}


def self_test() -> int:
    """Checks the statistics and verdicts on canned runs."""
    failures = []

    def check(condition: bool, what: str) -> None:
        if not condition:
            failures.append(what)

    check(quartiles([1, 2, 3, 4, 5]) == (2, 3, 4), "quartiles of 1..5")
    check(quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25), "quartiles of 1..4")
    end_to_end = {
        "latency_p50_ms": {"name": "latency_p50_ms", "better": "lower",
                           "bound": 0.25},
        "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower",
                        "bound": 0.15},
        "throughput_per_s": {"name": "throughput_per_s", "better": "higher",
                             "bound": 0.25},
    }
    per_layer = {"model.instance_build_us": {"better": "lower"}}

    def row_of(lines: list, name: str) -> str:
        return next((line for line in lines if line.startswith(name)), "")

    # Ten pairs: the change halves p50 in every pair; RSS is noisy on the
    # parent (IQR above the 15% bound) and overlaps.
    parent_rss = [100, 140, 100, 140, 100, 140, 100, 140, 100, 140]
    runs = []
    for pair in range(10):
        runs.append(canned_run("before", pair, 10.0 + pair * 0.1,
                               parent_rss[pair]))
        runs.append(canned_run("after", pair, 5.0 + pair * 0.1, 120))
    lines = summarize_ab(runs, end_to_end, per_layer)
    check("wins 10/10" in row_of(lines, "latency_p50_ms"), "p50 wins 10/10")
    check(row_of(lines, "latency_p50_ms").endswith(": gain"), "p50 gain")
    check(row_of(lines, "peak_rss_mb").endswith(": unresolved"),
          "noisy RSS is unresolved")
    check("bound" not in row_of(lines, "model.instance_build_us"),
          "per-layer rows carry no verdict")
    check(row_of(lines, "throughput_per_s") == "",
          "metrics no run reported are skipped")

    # A change 30% slower in every pair is worse beyond the 25% bound; a
    # failed run is counted and listed.
    runs = []
    for pair in range(4):
        runs.append(canned_run("before", pair, 10.0, 100))
        runs.append(canned_run("after", pair, 13.0, 100, correct=pair != 2))
    lines = summarize_ab(runs, end_to_end, per_layer)
    check(row_of(lines, "latency_p50_ms").endswith(": WORSE"), "p50 WORSE")
    check(row_of(lines, "peak_rss_mb").endswith(": within bound"),
          "flat RSS within bound")
    check("after: 4 runs, failed/attempted 1/40" in lines, "failed count")
    check(any("INCORRECT RUN: after" in line and "pair 2" in line
              for line in lines), "incorrect run listed")

    # 8 wins of 10 is no claimed gain even when the medians differ.
    runs = []
    for pair in range(10):
        runs.append(canned_run("before", pair, 10.0, 100))
        runs.append(canned_run("after", pair, 8.0 if pair < 8 else 11.0, 100))
    lines = summarize_ab(runs, end_to_end, per_layer)
    check(row_of(lines, "latency_p50_ms").endswith(": within bound"),
          "8/10 wins is not a gain")

    # A crashed change-side run (no result) is a lost pair, not a dropped
    # one: 9 wins of 10 pairs, and the crash withholds the gain.
    def halved(**after_fields) -> list:
        runs = []
        for pair in range(10):
            runs.append(canned_run("before", pair, 10.0 + pair * 0.1, 100))
            runs.append(canned_run("after", pair, 5.0 + pair * 0.1, 100,
                                   **after_fields))
        return runs

    runs = halved()
    runs[7] = dict(runs[7], exit=None, result=None)
    lines = summarize_ab(runs, end_to_end, per_layer)
    check("wins 9/10" in row_of(lines, "latency_p50_ms"),
          "a crashed change run loses its pair")
    check(row_of(lines, "latency_p50_ms").endswith(
        ": gain withheld (a run failed or was incorrect)"),
        "a crashed run withholds the gain")
    check(any("INCORRECT RUN: after" in line and "pair 3" in line
              and "exit None" in line for line in lines),
          "crashed run listed")

    # Correct runs, but a larger share of failed operations on the change.
    lines = summarize_ab(halved(failed=1), end_to_end, per_layer)
    check("wins 10/10" in row_of(lines, "latency_p50_ms"),
          "failed operations do not lose pairs")
    check(row_of(lines, "latency_p50_ms").endswith(
        ": gain withheld (more failed operations than the parent)"),
        "more failed operations withhold the gain")

    # An unpaired run is left out of the statistics, and equal pair
    # numbers from another batch are pairs of their own.
    runs.append(canned_run("before", 10, 50.0, 100))
    lines = summarize_ab(runs, end_to_end, per_layer)
    check(lines[0].startswith("10 complete pairs (21 runs"),
          "unpaired run excluded")
    for run in runs[:4]:
        runs.append(dict(run, batch="second"))
    lines = summarize_ab(runs, end_to_end, per_layer)
    check(lines[0].startswith("12 complete pairs (25 runs"),
          "batches keep their own pairs")

    for failure in failures:
        print(f"self-test FAILED: {failure}", file=sys.stderr)
    print("compare_bench self-test: " + ("ok" if not failures else "FAILED"))
    return 0 if not failures else 1


def run_perf_ab(args) -> int:
    seconds, end_to_end, per_layer = load_benchmark()
    records = (read_logs(args.from_log) if args.from_log
               else ab_pairs(args, seconds))
    for line in summarize_ab(records, end_to_end, per_layer):
        print(line)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "bench" / "BENCH_BASELINE.json"),
    )
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression threshold (0.25 = +25%%)")
    parser.add_argument("--min-delta", type=float, default=0.05,
                        help="ignore regressions smaller than this many "
                             "seconds of absolute drift")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run instead of "
                             "comparing")
    parser.add_argument("--before",
                        help="A/B mode: build dir of the 'before' tree")
    parser.add_argument("--after",
                        help="A/B mode: build dir of the 'after' tree")
    parser.add_argument("--rounds", type=int, default=5,
                        help="A/B mode: interleaved measurement rounds")
    parser.add_argument("--benches",
                        help="A/B mode: comma-separated bench names "
                             "(default: every bench present in both trees)")
    parser.add_argument("--filter", default="",
                        help="A/B mode: --benchmark_filter for "
                             "Google-Benchmark benches")
    parser.add_argument("--workload",
                        help="perfbench A/B mode: workload to run; "
                             "--before/--after then name checkouts")
    parser.add_argument("--pairs", type=int, default=10,
                        help="perfbench A/B mode: ABBA pairs to run")
    parser.add_argument("--seed", type=int, default=1,
                        help="perfbench A/B mode: workload seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="perfbench A/B mode: traced runs (per-layer "
                             "metrics)")
    parser.add_argument("--from-log", nargs="+",
                        help="report on earlier perfbench A/B logs")
    parser.add_argument("--self-test", action="store_true",
                        help="check the A/B statistics on canned runs")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.from_log:
        return run_perf_ab(args)
    if bool(args.before) != bool(args.after):
        parser.error("--before and --after must be given together")
    if args.before and args.workload:
        return run_perf_ab(args)
    if args.before:
        return run_ab(args)

    bench_dir = pathlib.Path(args.build_dir) / "bench"
    executables = sorted(
        p for p in bench_dir.glob("bench_*")
        if p.is_file() and p.stat().st_mode & 0o111
    )
    if not executables:
        print(f"no bench executables under {bench_dir}", file=sys.stderr)
        return 2

    results = {p.name: run_bench(p) for p in executables}

    baseline_path = pathlib.Path(args.baseline)
    if args.update:
        payload = {
            "description": DESCRIPTION,
            "command": "./build/bench/<name> --smoke",
            "benches": results,
        }
        baseline_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline rewritten: {baseline_path} "
              f"({len(results)} benches)")
        return 0

    baseline = json.loads(baseline_path.read_text())["benches"]
    regressions = []
    for name, result in sorted(results.items()):
        if result["exit_code"] != 0:
            regressions.append(f"{name}: smoke run failed "
                               f"(exit {result['exit_code']})")
            continue
        base = baseline.get(name)
        if base is None:
            print(f"  NEW  {name}: {result['wall_seconds']:.3f}s "
                  "(no baseline entry)")
            continue
        before = base["wall_seconds"]
        after = result["wall_seconds"]
        delta = after - before
        ratio = after / before if before > 0 else float("inf")
        marker = "ok"
        if delta > args.min_delta and ratio > 1.0 + args.threshold:
            marker = "REGRESSION"
            regressions.append(
                f"{name}: {before:.3f}s -> {after:.3f}s "
                f"({(ratio - 1.0) * 100.0:+.0f}%)")
        print(f"  {marker:>10}  {name}: {before:.3f}s -> {after:.3f}s")

    if regressions:
        print("\nflagged smoke-mode regressions (>"
              f"{args.threshold * 100:.0f}% and >{args.min_delta}s):")
        for line in regressions:
            print(f"  {line}")
        return 1
    print("\nno smoke-mode regressions flagged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
