// Exact solver for *partially reconfigurable* machines (paper §3): machines
// where reconfigurations are per-task but hyperreconfigurations can only be
// performed for all tasks at a time.  With all boundaries aligned, the
// fully synchronised MT-Switch cost decomposes over intervals:
//
//   cost([i,j)) = combine_hyper_j(v_j [+ changeover_j])
//               + combine_reconfig_j(|U_j(i,j)| + priv_j(i,j)) · (j − i)
//
// (combine = max for task-parallel upload, Σ for task-sequential; the public
// context size enters the reconfig combine).  An O(m·n²) interval DP is then
// exact for this machine class, and serves as a strong baseline and seed for
// the partial-hyperreconfiguration heuristics.
//
// Changeover costs are supported only for aligned schedules with hyper
// upload task-sequential (the per-task Δ terms add); for task-parallel the
// combine of (v_j + Δ_j) is used.
#pragma once

#include "core/solver.hpp"

namespace hyperrec {

/// Exact aligned-boundary solution under the instance's evaluation options.
[[nodiscard]] MTSolution solve_aligned_dp(const SolveInstance& instance);

}  // namespace hyperrec
