// Certified lower bounds for the fully synchronised MT-Switch problem.
//
// Production users need "within 8% of optimal" far more than they need
// optimal, so every solution can carry a certificate: a cost no valid
// schedule can beat, and the resulting optimality gap.  Two relaxations are
// combined (both sound under every EvalOptions combination, including
// changeover, because changeover only adds cost):
//
//  1. Per-step demand bound.  Whatever interval serves step l, its
//     hypercontext covers step l's requirement and its quota covers step
//     l's demand, so the step's reconfiguration term is at least
//     combine(reconfig_upload; |h^pub|; per task |req_j(l)| + d_j(l)).
//     Step 0 additionally hyperreconfigures every task, and machines with
//     global resources pay at least one global hyperreconfiguration.
//
//  2. Interval-union relaxation.  For each task the exact single-task DP
//     (core/interval_dp.hpp) lower-bounds that task's share of the hyper +
//     reconfiguration cost in *any* multi-task schedule (extra forced
//     boundaries only cost more).  How the per-task bounds combine depends
//     on the upload modes; see the .cpp for the per-mode algebra.  For long
//     traces the DP (O(n²) in the worst case) is chunked: clipping
//     intervals at chunk edges only shrinks unions/demands, and at most one
//     hyperreconfiguration per chunk was paid in an earlier chunk, so the
//     chunked sum stays a valid lower bound.  Each chunk's DP runs in place
//     on the task's trace (single_task_switch_cost) with the exact early
//     exit, so a chunk usually costs a handful of union merges per step
//     rather than chunk/2; each step's size |req_j(l)| + d_j(l) is computed
//     once and shared by both relaxations.
#pragma once

#include <optional>

#include "core/solver.hpp"

namespace hyperrec {

struct LowerBoundConfig {
  /// Chunk length for the per-task DP relaxation.  0 = auto: exact
  /// full-length DP up to 2048 steps, chunks of 512 beyond.  Smaller chunks
  /// are cheaper and weaker; the bound stays sound for any value ≥ 1.
  std::size_t chunk = 0;
};

struct LowerBoundCertificate {
  /// max(per_step_bound, dp_relaxation_bound) — no valid schedule costs less.
  Cost bound = 0;
  Cost per_step_bound = 0;
  Cost dp_relaxation_bound = 0;
};

/// Computes the certificate.  Requires a synchronized trace (the fully
/// synchronised evaluator does too).
[[nodiscard]] LowerBoundCertificate compute_lower_bound(
    const SolveInstance& instance, const LowerBoundConfig& config = {});

/// Gap arithmetic: (total − lower_bound) · 100 / lower_bound.  Returns 0
/// when total ≤ lower_bound, and nullopt when lower_bound ≤ 0 with a
/// positive total (the gap is unbounded).
[[nodiscard]] std::optional<double> certified_gap_pct(Cost total,
                                                      Cost lower_bound);

/// Computes the bound for `instance` and stamps `solution.lower_bound` /
/// `solution.gap_pct`.  The solution must belong to this instance.
void attach_certificate(const SolveInstance& instance, MTSolution& solution,
                        const LowerBoundConfig& config = {});

}  // namespace hyperrec
