// Exact exhaustive solver for the fully synchronised MT-Switch problem with
// per-task (partial) hyperreconfigurations.
//
// Enumerates every combination of per-task boundary masks — 2^{m(n−1)}
// schedules — and keeps the cheapest.  This is the ground truth the property
// tests measure every heuristic against, and the exponential wall that
// motivates Theorem 1's polynomial DP.  Instances are capped at
// m(n−1) ≤ 24 by precondition.
#pragma once

#include "core/solver.hpp"

namespace hyperrec {

[[nodiscard]] MTSolution solve_exhaustive(const SolveInstance& instance);

/// Number of schedules solve_exhaustive would enumerate; lets callers guard.
[[nodiscard]] double exhaustive_search_space(std::size_t m, std::size_t n);

}  // namespace hyperrec
