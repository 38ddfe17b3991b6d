#!/usr/bin/env python3
"""The hyperrec benchmark: one command for every workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke        # self-test + every workload, tiny

The first run configures and builds the library, the daemon and the harness
into .bench_build/ (CMake, Release); later runs reuse the build.  Each run
works in .bench_build/runs/<workload>/ (the daemon socket, its log, the
Chrome trace of a traced run) and records its result with the revision,
nproc, kernel ISA and build type in .bench_build/results/.  The last line
of standard output is the one-line JSON result; the exit status is 0 only
when every correctness check passed.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("serve_cold", "serve_hot", "stream_fleet", "batch_long")
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then bring the two binaries up to date."""
    BUILD_DIR.mkdir(exist_ok=True)
    log = open(BUILD_DIR / "build.log", "ab")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "hyperrec_serve", "hyperrec_perf",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.call(step, stdout=log, stderr=log) != 0:
            log.close()
            tail = (BUILD_DIR / "build.log").read_text(errors="replace")
            sys.stderr.write(tail[-4000:])
            sys.stderr.write("\nperfbench: build failed (see .bench_build/build.log)\n")
            return False
    log.close()
    return True


def revision():
    if not Path(".git").exists():  # a plain checkout: no revision to name
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_harness(workload, seed, seconds, trace, smoke):
    """Runs one workload in its own directory; returns (exit code, stdout)."""
    run_dir = BUILD_DIR / "runs" / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    binary = (BUILD_DIR / "hyperrec_perf").resolve()
    command = [str(binary), "run", "--workload=" + workload,
               "--seed=%d" % seed, "--seconds=%s" % seconds,
               "--trace=%d" % (1 if trace else 0),
               "--serve=" + str((BUILD_DIR / "hyperrec_serve").resolve())]
    if trace:
        command.append("--trace-out=trace.json")
    if smoke:
        command.append("--smoke")
    # Own process group: a timeout kills the harness AND the daemon it
    # spawned.
    process = subprocess.Popen(command, cwd=run_dir, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        return 1, ""
    finally:
        # Whatever the harness left behind (a daemon after a crash) goes too.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return process.returncode, out


def record(workload, seed, trace, out):
    """Stores the result line with the facts needed to compare it later."""
    lines = out.strip().splitlines()
    if not lines:
        return None
    result = json.loads(lines[-1])
    facts = {"workload": workload, "seed": seed, "trace": trace,
             "revision": revision(), "nproc": os.cpu_count(),
             "time": time.strftime("%Y-%m-%dT%H:%M:%S")}
    for line in lines:
        if line.startswith("# workload "):
            # "# workload W, seed N, kernel ISA X, build Y[, traced]"
            for part in line[2:].split(", "):
                if part.startswith("kernel ISA "):
                    facts["isa"] = part[len("kernel ISA "):]
                elif part.startswith("build "):
                    facts["build_type"] = part[len("build "):]
    facts["result"] = result
    results = BUILD_DIR / "results"
    results.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (workload, seed, 1 if trace else 0)
    (results / name).write_text(json.dumps(facts, indent=1) + "\n")
    return result


def smoke():
    """Self-test of the metric arithmetic, then every workload shrunk."""
    binary = (BUILD_DIR / "hyperrec_perf").resolve()
    status = subprocess.call([str(binary), "selftest"])
    for workload in WORKLOADS:
        for trace in (False, True):
            code, out = run_harness(workload, 1, 1, trace, True)
            lines = out.strip().splitlines()
            ok = code == 0 and lines and json.loads(lines[-1])["correct"]
            print("smoke %-12s trace=%d: %s" % (workload, trace,
                                                 "ok" if ok else "FAILED"))
            if not ok:
                sys.stdout.write(out)
                status = 1
    print("smoke: %s" % ("ok" if status == 0 else "FAILED"))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test and a tiny run of every workload")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if not build():
        return 1
    if args.smoke:
        return smoke()
    code, out = run_harness(args.workload, args.seed, args.seconds,
                           args.trace == 1, False)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0:
        record(args.workload, args.seed, args.trace == 1, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
