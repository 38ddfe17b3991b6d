// Simulated annealing for the MT-Switch problem.
//
// A metaheuristic companion to the paper's genetic algorithm: the state is a
// full multi-task schedule (one boundary mask per task), moves flip or slide
// a single boundary, and the temperature follows a geometric schedule.
// Useful both as an ablation point (bench_ga_ablation) and as the only
// local-search solver that supports changeover costs (its evaluation is the
// exact evaluator, which handles them).
#pragma once

#include <cstdint>

#include "core/solver.hpp"

namespace hyperrec {

struct SaConfig {
  std::size_t iterations = 20000;
  double initial_temperature = -1.0;  ///< <=0: derived from machine size
  double cooling = 0.9995;            ///< geometric factor per iteration
  std::uint64_t seed = 0xC0FFEEull;
  /// Initial schedule; if empty, starts from the single-interval schedule.
  std::vector<MultiTaskSchedule> seed_schedule;  // 0 or 1 entries
  /// Checked between iterations; when it fires the best incumbent found so
  /// far is returned (re-evaluated, never torn).  Default: never cancels.
  CancelToken cancel;
};

[[nodiscard]] MTSolution solve_annealing(const SolveInstance& instance,
                                         const SaConfig& config = {});

}  // namespace hyperrec
