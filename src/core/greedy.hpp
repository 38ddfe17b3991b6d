// Greedy window-lookahead heuristic for the MT-Switch problem.
//
// Processes each task independently, left to right.  At each step it
// compares, over a lookahead window of W steps, the reconfiguration cost of
// extending the current hypercontext against paying v_j for a fresh
// hypercontext fitted to the window, and starts a new interval when the
// fresh one is cheaper.  Runs in O(m·n·W) and serves as the fast, online-
// capable baseline (the decision at step l only looks W steps ahead — this
// is the kind of rule a runtime system could apply without the full trace).
#pragma once

#include "core/solver.hpp"

namespace hyperrec {

struct GreedyConfig {
  std::size_t window = 8;
};

[[nodiscard]] MTSolution solve_greedy(const SolveInstance& instance,
                                      const GreedyConfig& config = {});

}  // namespace hyperrec
