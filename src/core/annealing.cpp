#include "core/annealing.hpp"

#include <cmath>

#include "support/rng.hpp"

namespace hyperrec {

MTSolution solve_annealing(const SolveInstance& instance,
                           const SaConfig& config) {
  const MultiTaskTrace& trace = instance.trace();
  const MachineSpec& machine = instance.machine();
  HYPERREC_ENSURE(trace.synchronized(), "annealing needs equal-length traces");
  HYPERREC_ENSURE(config.seed_schedule.size() <= 1, "at most one seed");
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();
  const bool global_resources = machine.has_global_resources();

  Xoshiro256 rng(config.seed);

  std::vector<DynamicBitset> masks;
  if (config.seed_schedule.empty()) {
    masks.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      DynamicBitset mask(n);
      mask.set(0);
      masks.push_back(std::move(mask));
    }
  } else {
    for (const Partition& partition : config.seed_schedule.front().tasks) {
      masks.push_back(partition.to_boundary_mask());
    }
  }

  auto build = [&](const std::vector<DynamicBitset>& genes) {
    MultiTaskSchedule schedule;
    schedule.tasks.reserve(genes.size());
    for (const DynamicBitset& mask : genes) {
      schedule.tasks.push_back(Partition::from_boundary_mask(mask));
    }
    if (global_resources) schedule.global_boundaries.push_back(0);
    return schedule;
  };
  // Every move prices a schedule: query the instance's tables.
  const MultiTaskTraceStats& stats = instance.stats();
  auto cost_of = [&](const std::vector<DynamicBitset>& genes) {
    return detail::evaluate_fully_sync(trace, stats, machine, build(genes),
                                       instance.options())
        .total;
  };

  Cost current = cost_of(masks);
  std::vector<DynamicBitset> best = masks;
  Cost best_cost = current;

  double temperature = config.initial_temperature > 0
                           ? config.initial_temperature
                           : static_cast<double>(machine.total_switches());

  // Hoisted out of the iteration loop: copy-assignment below reuses the
  // vector's (and each bitset's) capacity instead of reallocating per move.
  std::vector<DynamicBitset> neighbour;

  // lint: hot-loop begin
  for (std::size_t it = 0; it < config.iterations; ++it) {
    if (config.cancel.cancelled()) break;
    // Move: flip a random boundary bit, or slide a boundary by one step.
    const std::size_t j = rng.uniform(m);
    const std::size_t s = 1 + rng.uniform(n - 1);
    neighbour = masks;
    if (rng.flip(0.7) || n < 3) {
      if (neighbour[j].test(s)) {
        neighbour[j].reset(s);
      } else {
        neighbour[j].set(s);
      }
    } else {
      // Slide: move boundary s to s±1 when possible.
      const std::size_t to = rng.flip(0.5) && s + 1 < n ? s + 1
                             : (s > 1 ? s - 1 : s + 1);
      if (to < n && neighbour[j].test(s) && !neighbour[j].test(to)) {
        neighbour[j].reset(s);
        neighbour[j].set(to);
      } else if (neighbour[j].test(s)) {
        neighbour[j].reset(s);
      } else {
        neighbour[j].set(s);
      }
    }

    const Cost candidate = cost_of(neighbour);
    const Cost delta = candidate - current;
    if (delta <= 0 ||
        rng.uniform01() < std::exp(-static_cast<double>(delta) / temperature)) {
      masks = std::move(neighbour);
      current = candidate;
      if (current < best_cost) {
        best_cost = current;
        best = masks;
      }
    }
    temperature *= config.cooling;
  }
  // lint: hot-loop end
  return make_solution_from_tables(instance, build(best));
}

}  // namespace hyperrec
