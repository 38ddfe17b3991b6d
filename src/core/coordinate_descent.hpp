// Block coordinate descent for the fully synchronised MT-Switch problem.
//
// The per-step cost couples the tasks only through the combine (max or Σ)
// over their hypercontext sizes and hyperreconfiguration indicators.  With
// all tasks but one frozen, the remaining task's optimal partition is again
// an interval DP:
//
//   interval [i, j) of task t costs
//     hyper_delta(i)  — the increase of step i's hyper term when task t's
//                        boundary (cost v_t) joins the frozen boundaries, and
//     Σ_{l ∈ [i,j)} (step_reconfig_with(l, u) − step_reconfig_without(l))
//                      with u = |U_t(i,j)| + priv_t(i,j),
//
// both computable from per-step aggregates of the frozen tasks.  Sweeping
// tasks round-robin until no sweep improves the cost yields a local optimum
// that in practice matches the exhaustive optimum on small instances (see
// tests/property) and beats the GA on the SHyRA trace.  O(rounds·m·n³) worst
// case, with small constants.  Changeover costs are not supported (the
// per-interval cost would depend on the neighbouring intervals).
#pragma once

#include "core/solver.hpp"

namespace hyperrec {

struct CoordinateDescentConfig {
  /// Maximum number of full sweeps over all tasks.
  std::size_t max_rounds = 32;
  /// Initial schedule; if empty, the aligned DP solution is used.
  std::vector<MultiTaskSchedule> seed;  // 0 or 1 entries
  /// Checked between per-task sweeps; when it fires the current schedule is
  /// returned (re-evaluated, never torn).  A token that is already expired
  /// at entry skips the aligned-DP seeding and starts from the
  /// single-interval schedule.  Default: never cancels.
  CancelToken cancel;
};

[[nodiscard]] MTSolution solve_coordinate_descent(
    const SolveInstance& instance, const CoordinateDescentConfig& config = {});

}  // namespace hyperrec
