// Exact solver for *partially reconfigurable* machines (paper §3): machines
// where reconfigurations are per-task but hyperreconfigurations can only be
// performed for all tasks at a time.  With all boundaries aligned, the
// fully synchronised MT-Switch cost decomposes over intervals:
//
//   cost([i,j)) = combine_hyper_j(v_j)
//               + combine_reconfig_j(|U_j(i,j)| + priv_j(i,j)) · (j − i)
//
// (combine = max for task-parallel upload, Σ for task-sequential; the public
// context size enters the reconfig combine).  An interval DP is then exact
// for this machine class, and serves as a strong baseline and seed for the
// partial-hyperreconfiguration heuristics.  It is the interval DP kernel of
// core/interval_dp.hpp over the m tasks, with the hyper term as H, the
// public context as the reconfig combine's start and the instance's
// reconfig upload mode: O(n²) priced starts in the worst case, each growing
// every task's union by one merge or, once the union counters have caught
// up, one integer add.  The hyper term is a constant H and the combined
// reconfig term r(i,j) is non-negative and monotone under interval
// inclusion, so the scan over starts stops at the exact early exit proven
// there (same proof, same saturating-arithmetic argument, same
// bit-identical best[] and parent[]) and usually prices a handful of starts
// per end.
//
// Precondition: no changeover costs.  A changeover term depends on each
// task's previous hypercontext, so the cost no longer decomposes over
// intervals; solve_aligned_dp rejects options.changeover with a
// PreconditionError.
//
// Exactness on general (unaligned) schedules
// ------------------------------------------
// aligned_dp_is_exact() names a class where the aligned optimum is the
// global optimum of the §4.2 problem: a synchronized trace, no changeover,
// task-parallel hyper upload, no global resources, and one common v = v_j
// for every task (either reconfig upload mode).  Proof: take any schedule
// S with per-task boundary sets B_j and let B = ∪_j B_j.  Let S' give every
// task the boundary set B.  S' is aligned, and cost(S') ≤ cost(S):
//   * hyper term: with task-parallel upload step l pays max_{j ∈ A_l} v_j,
//     which is v when some task has a boundary at l and 0 otherwise.  Both
//     S and S' have a boundary exactly at the steps of B, so both pay v·|B|.
//   * reconfig term: B ⊇ B_j, so task j's interval around step l under S'
//     is a sub-interval of its interval under S.  Its union |U_j| can only
//     shrink (no global resources means no private demand and no public
//     context), and max and Σ are both monotone, so every step's reconfig
//     term under S' is at most the one under S.
//   * there is no global term (no global resources).
// Hence min over aligned schedules ≤ min over all schedules, and the DP
// below computes the aligned minimum exactly.
//
// Each condition is needed.  Unequal v_j: refining a cheap task onto an
// expensive task's boundaries is free, but refining an expensive one onto a
// cheap task's boundaries raises that step's max.  Task-sequential hyper
// upload: each extra task at a boundary adds its v_j.  Changeover: the Δ
// terms depend on each task's own sequence of hypercontexts.  Global
// resources: private-global quotas and the public context couple the
// blocks.  tests/property/test_aligned_dp_exact.cpp pins the class against
// exhaustive search and the Theorem-1 DP, and keeps one counterexample for
// unequal v_j and one for task-sequential hyper upload.
#pragma once

#include "core/solver.hpp"

namespace hyperrec {

/// Exact aligned-boundary solution under the instance's evaluation options,
/// which must not enable changeover costs.  Costs saturate at kCostInfinity
/// (support/cost_math.hpp) instead of wrapping; when every candidate
/// saturates the single interval wins.
[[nodiscard]] MTSolution solve_aligned_dp(const SolveInstance& instance);

/// True when solve_aligned_dp is optimal over *all* schedules of the
/// instance (see the proof above): a non-empty synchronized trace, no
/// changeover, task-parallel hyper upload, no global resources and equal
/// local_init on every task.
[[nodiscard]] bool aligned_dp_is_exact(const SolveInstance& instance);

}  // namespace hyperrec
