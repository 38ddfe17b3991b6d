#!/usr/bin/env python3
"""Time-sliced differential fuzzing campaign driver for fuzz_harness.

Repeatedly invokes the fuzz_harness binary (all registered solvers vs the
exhaustive oracle on random small instances) with advancing seed ranges
until the time budget is spent.  On the first disagreement the harness's
reproducer dump is forwarded and the exact single-iteration reproducer
command is printed; the exit code is nonzero so CI fails the step.

Usage:
  tools/fuzz_solvers.py --binary build/examples/fuzz_harness --seconds 60
  tools/fuzz_solvers.py --binary ... --seed 1234 --chunk 100   # fixed start
  tools/fuzz_solvers.py --binary ... --mux --seconds 30        # multiplexer
                                                               # vs solo mode
  tools/fuzz_solvers.py --binary ... --hierarchical --seconds 30
                                                               # hierarchical
                                                               # vs exhaustive
  tools/fuzz_solvers.py --binary ... --exact-class --seconds 30
                                                               # exact fast
                                                               # path vs every
                                                               # member and
                                                               # exhaustive

CI runs a 60-second slice; the ctest `fuzz` label runs the harness's own
--smoke mode instead (no python needed there).
"""

import argparse
import pathlib
import re
import subprocess
import sys
import time

# The --hierarchical summary's "(F flat, E exact, S segmented; ...)" counts.
TALLY = re.compile(r"\((\d+) flat, (\d+) exact, (\d+) segmented;")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", default="build/examples/fuzz_harness",
                        help="path to the fuzz_harness executable")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="time budget for the campaign")
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed; chunk i starts at seed + i*chunk")
    parser.add_argument("--chunk", type=int, default=100,
                        help="iterations per harness invocation")
    parser.add_argument("--mux", action="store_true",
                        help="fuzz the StreamMultiplexer against solo "
                             "StreamingEngine replays instead of the "
                             "solver-vs-exhaustive oracle")
    parser.add_argument("--hierarchical", action="store_true",
                        help="fuzz solve_hierarchical (tiny segments, "
                             "certificate bracket) against the exhaustive "
                             "oracle instead of the flat solver line-up")
    parser.add_argument("--exact-class", action="store_true",
                        help="fuzz the portfolio's exact aligned-DP fast "
                             "path on in-class instances against every "
                             "member run directly and the exhaustive oracle")
    args = parser.parse_args()

    binary = pathlib.Path(args.binary)
    if not binary.exists():
        print(f"fuzz_solvers: binary not found: {binary}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds
    seed = args.seed
    chunks = 0
    iterations = 0
    tally = None  # flat, exact, segmented over every chunk
    while time.monotonic() < deadline:
        command = [str(binary), f"--seed={seed}", f"--iters={args.chunk}"]
        if args.mux:
            command.append("--mux")
        if args.hierarchical:
            command.append("--hierarchical")
        if args.exact_class:
            command.append("--exact-class")
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            print(f"\nfuzz_solvers: FAILED in chunk starting at seed {seed}",
                  file=sys.stderr)
            print("reproduce the chunk with:", file=sys.stderr)
            print(f"  {' '.join(command)}", file=sys.stderr)
            print("(the harness output above names the exact one-iteration "
                  "reproducer seed)", file=sys.stderr)
            return 1
        chunks += 1
        iterations += args.chunk
        seed += args.chunk
        match = TALLY.search(proc.stdout)
        if match:
            counts = [int(group) for group in match.groups()]
            tally = counts if tally is None else [
                a + b for a, b in zip(tally, counts)]

    print(f"fuzz_solvers: {iterations} iterations in {chunks} chunks "
          f"(seeds {args.seed}..{seed - 1}), no disagreements")
    if tally is not None:
        print(f"fuzz_solvers: {tally[0]} flat ({tally[1]} exact), "
              f"{tally[2]} segmented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
