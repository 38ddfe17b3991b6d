// Genetic algorithm for the fully synchronised MT-Switch problem — the
// method the paper used for its multi-task experiment (§6:
// "(Hyper)reconfiguration costs with partial hyperreconfigurations for the
// multiple task case were computed using a genetic algorithm").
//
// The paper does not publish GA parameters, so this implementation uses a
// conventional generational GA and documents every choice:
//   * chromosome: one boundary bitmask per task (bit s ⇒ the task performs a
//     partial hyperreconfiguration before step s); bit 0 is forced,
//   * fitness: the exact §4.2 cost of the decoded schedule,
//   * tournament selection, per-task two-point crossover, per-bit mutation,
//   * elitism plus random immigrants for diversity,
//   * seeded population: aligned-DP solution, single-interval and
//     every-step schedules alongside random masks,
//   * fitness evaluation parallelised over the population (deterministic:
//     all randomness lives in the serial breeding phase).
#pragma once

#include <cstdint>

#include "core/solver.hpp"

namespace hyperrec {

struct GaConfig {
  std::size_t population = 96;
  std::size_t generations = 400;
  std::size_t tournament = 3;
  double crossover_rate = 0.9;
  /// Per-bit mutation probability; <= 0 selects 1.5/n adaptively.
  double mutation_rate = -1.0;
  std::size_t elites = 2;
  std::size_t immigrants = 2;
  std::uint64_t seed = 0x5EEDF00Dull;
  bool parallel_fitness = true;
  /// Extra seed individual injected into the initial population (e.g. a
  /// cached warm-start incumbent); 0 or 1 entries.
  std::vector<MultiTaskSchedule> seed_schedule;
  /// Stop early when the best cost has not improved for this many
  /// generations; 0 disables early stopping.
  std::size_t patience = 0;
  /// Checked between generations; when it fires the best incumbent found so
  /// far is returned (re-evaluated, never torn).  A token that is already
  /// expired at entry skips even the heuristic seeding and returns the
  /// single-interval schedule.  Default: never cancels.
  CancelToken cancel;
};

struct GaResult {
  MTSolution best;
  /// Best cost after each generation (for convergence plots).
  std::vector<Cost> history;
  std::size_t evaluations = 0;
};

[[nodiscard]] GaResult solve_genetic(const SolveInstance& instance,
                                     const GaConfig& config = {});

}  // namespace hyperrec
