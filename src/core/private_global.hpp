// Solver for machines with private-global resources (§3, §4).
//
// Private-global units (the paper's I/O-unit example) are assigned to tasks
// by *global* hyperreconfigurations: within a global block the per-task
// quotas are fixed and must jointly fit into the pool of g units.  When a
// phase change shifts demand between tasks, a new global hyperreconfiguration
// (cost w, all tasks stall and must re-establish local hypercontexts) can
// re-assign the quotas.
//
// solve_private_global picks the global boundaries by the boundary DP of
// core/segments.hpp over candidate steps; each block is priced by the inner
// solver (default: coordinate descent on the sub-trace).  A block is
// feasible iff Σ_j max-demand_j(block) ≤ g.  Exact with respect to the
// chosen candidate set and inner solver.
#pragma once

#include "core/solver.hpp"

namespace hyperrec {

struct PrivateGlobalConfig {
  /// Candidate steps for global boundaries (0 is always included).  Empty
  /// means every step — O(n²) blocks, fine up to a few hundred steps.
  std::vector<std::size_t> candidates;
  /// Inner solver for each block; defaults to coordinate descent.  Each
  /// block is handed its own SolveInstance (the parent machine with its
  /// private-global pool intact but global_init = 0, the block's sub-trace)
  /// with freshly built precomputation.  Inner solutions must keep the block
  /// a single global block (global_boundaries == {0}); anything else throws.
  MTSolverFn inner;
  /// Passed to the inner solver for every block, so a deadline set here
  /// bounds the whole decomposition.  Default: never cancels.
  CancelToken cancel;
};

struct PrivateGlobalSolution {
  MTSolution solution;
  /// quotas[b][j] — private units assigned to task j in global block b.
  std::vector<std::vector<std::uint32_t>> quotas;
  /// Number of inner-solver calls the block scan actually made.  Feasibility
  /// is monotone, so the scan stops at the first infeasible block per row
  /// and skips rows the outer DP cannot reach — this counter pins that.
  std::size_t inner_invocations = 0;
};

[[nodiscard]] PrivateGlobalSolution solve_private_global(
    const SolveInstance& instance, const PrivateGlobalConfig& config = {});

}  // namespace hyperrec
