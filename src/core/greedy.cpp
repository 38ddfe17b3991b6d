#include "core/greedy.hpp"

#include <algorithm>

#include "support/cost_math.hpp"

namespace hyperrec {

MTSolution solve_greedy(const SolveInstance& instance,
                        const GreedyConfig& config) {
  const MultiTaskTrace& trace = instance.trace();
  const MachineSpec& machine = instance.machine();
  HYPERREC_ENSURE(trace.synchronized(), "greedy needs equal-length traces");
  HYPERREC_ENSURE(config.window >= 1, "window must be at least 1");
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();

  MultiTaskSchedule schedule;
  schedule.tasks.reserve(m);

  for (std::size_t j = 0; j < m; ++j) {
    const TaskTrace& task = trace.task(j);
    const TaskTraceStats& stats = instance.task_stats(j);
    const Cost v = machine.tasks[j].local_init;
    std::vector<std::size_t> starts{0};

    DynamicBitset current(task.local_universe());
    current |= task.at(0).local;
    std::uint32_t current_priv = task.at(0).private_demand;

    for (std::size_t l = 1; l < n; ++l) {
      const std::size_t window_end = std::min(n, l + config.window);

      // Window scoring against the precomputed views, allocation-free: the
      // fresh size is the count fast path, the extended size a fused
      // |current ∪ window| pass; the window union is materialised only on
      // the rarer new-interval branch.
      const std::uint32_t window_priv =
          stats.max_private_demand(l, window_end);
      const Cost len = static_cast<Cost>(window_end - l);
      const Cost fresh_size =
          static_cast<Cost>(stats.local_union_count(l, window_end)) +
          static_cast<Cost>(window_priv);
      const Cost extended_size =
          static_cast<Cost>(
              stats.local_union_count_with(current, l, window_end)) +
          static_cast<Cost>(std::max(current_priv, window_priv));

      // Saturating, as the DPs: a near-maximum v must not wrap negative
      // and open an interval at every step.
      if (cost_add(v, cost_mul(fresh_size, len)) <
          cost_mul(extended_size, len)) {
        starts.push_back(l);
        current = stats.local_union(l, window_end);
        current_priv = window_priv;
      } else {
        current |= task.at(l).local;
        current_priv = std::max(current_priv, task.at(l).private_demand);
      }
    }
    schedule.tasks.push_back(Partition::from_starts(std::move(starts), n));
  }
  if (machine.has_global_resources()) schedule.global_boundaries.push_back(0);
  return make_solution_from_tables(instance, std::move(schedule));
}

}  // namespace hyperrec
