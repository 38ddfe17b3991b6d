// Hierarchical segment-parallel solver for huge instances (ROADMAP item 4).
//
// Exhaustive search caps out at toy sizes, and outside the aligned DP's
// exact class the portfolio races heuristics; 1e6-step traces there need a
// divide-and-conquer tier that extends the paper's §4 interval DP exactly
// one level up.  solve_hierarchical
//
//   0. solves exact instances flat: when engine::portfolio_is_exact holds
//      (aligned-dp in the line-up, instance in aligned_dp_is_exact's class)
//      the portfolio's answer for the whole trace is the optimum, so it is
//      returned as one window at any length, and under `certify` it
//      certifies itself (lower_bound = total, gap 0) without a relaxation.
//      The aligned DP prices O(n²) starts in the worst case, each a union
//      merge or one counter add per task (core/interval_dp.hpp), but its
//      exact early exit makes it near-linear on all five workload families:
//      at 4 tasks × 1e5 steps × 32 switches it takes 21–43 ms on phased,
//      random, bursty and periodic traces and 44–52 ms on random-walk (one
//      thread of a shared 4-vCPU Intel Xeon, best of 2 in 2 rounds; 68–87
//      ms for random-walk with union merges alone), where segments plus
//      the certificate took 123–207 ms and 340 ms on an earlier run.
//      Traces no longer than one segment are solved flat too, racing and
//      certified by the relaxation as usual.  Everything else
//   1. segments the trace into fixed-length windows and solves each window
//      independently through engine::solve_portfolio — in parallel on the
//      global ThreadPool (serially when the caller already runs on one of
//      its workers), optionally memoized through one shared SolveCache so
//      repeated segment shapes (periodic workloads, multi-tenant batches)
//      are solved once;
//   2. stitches the per-segment partitions back together with
//      core/segments.hpp's stitch — every segment start is a boundary of
//      every task, so the result is always a valid MultiTaskSchedule (the
//      offline analogue of StreamingEngine's window splice);
//   3. places global hyperreconfigurations with core/segments.hpp's
//      boundary DP over the segment edges at constant cost w (the DP that
//      solve_private_global prices by inner solves): given the stitched
//      local partitions, the block structure only decides the w·#blocks
//      term and per-block quota feasibility, so the DP is exact at segment
//      granularity;
//   4. optionally repairs the seams: a forced boundary at a segment edge is
//      dropped again for any task where merging the two adjacent intervals
//      is an exact-cost improvement (computed from the full instance's
//      stats tables — this is where segment-local myopia gets paid back).
//
// With `certify` every result carries a certified optimality gap: 0 on an
// exact flat solve, the relaxation's (core/lower_bound.hpp) otherwise.
//
// Preconditions: synchronized trace, and options.changeover == false — with
// changeover the cost of an interval depends on its predecessor across the
// seam, so segment costs would not be independent.
#pragma once

#include <cstddef>
#include <memory>

#include "cache/solve_cache.hpp"
#include "core/lower_bound.hpp"
#include "core/solver.hpp"
#include "engine/portfolio.hpp"
#include "support/cancel.hpp"

namespace hyperrec {

struct HierarchicalConfig {
  /// Segment length in steps.  Traces no longer than this, and instances
  /// the portfolio solves exactly (engine::portfolio_is_exact), are handed
  /// to the portfolio directly as one window.
  std::size_t segment = 512;
  /// Per-segment portfolio; `parallel`/`pool` are ignored (segments, not
  /// members, are the parallel unit here).
  engine::PortfolioConfig portfolio;
  /// Optional shared memoization: window solves (each segment, or the whole
  /// trace when flat) go through get_or_compute_guarded keyed by the
  /// window's instance fingerprint.
  std::shared_ptr<cache::SolveCache> cache;
  /// Drop forced seam boundaries again where merging adjacent intervals is
  /// an exact-cost win (task-sequential reconfig upload only; under the
  /// per-step-max mode the deltas are not task-separable).
  bool seam_repair = true;
  /// Attach a lower bound + gap certificate to the result: the total itself
  /// on an exact flat solve, the relaxation otherwise.
  bool certify = true;
  LowerBoundConfig bound;
  CancelToken cancel;
};

struct HierarchicalResult {
  MTSolution solution;
  /// Windows solved: 1 when the trace went flat (no longer than a segment,
  /// or exact at any length).
  std::size_t segments = 0;
  std::size_t global_blocks = 0;  ///< blocks the boundary DP settled on
  std::size_t seam_merges = 0;    ///< seam boundaries removed by repair
  std::size_t cache_hits = 0;     ///< window solves served by the cache
};

/// Solves `instance` hierarchically.  The returned schedule is always
/// re-evaluated against the full instance (cost == evaluator cost by
/// construction) and, with `certify`, carries lower_bound / gap_pct.
[[nodiscard]] HierarchicalResult solve_hierarchical(
    const SolveInstance& instance, const HierarchicalConfig& config = {});

}  // namespace hyperrec
