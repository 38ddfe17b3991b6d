#include "core/aligned_dp.hpp"

#include <algorithm>

#include "support/cost_math.hpp"

namespace hyperrec {

using detail::combine;

MTSolution solve_aligned_dp(const SolveInstance& instance) {
  const MultiTaskTrace& trace = instance.trace();
  const MachineSpec& machine = instance.machine();
  const EvalOptions& options = instance.options();
  HYPERREC_ENSURE(trace.synchronized(), "aligned DP needs equal-length traces");
  HYPERREC_ENSURE(!options.changeover,
                  "aligned DP does not support changeover costs; use the "
                  "genetic or annealing solver");
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();
  HYPERREC_ENSURE(n > 0 && m > 0, "empty problem");

  // Hyperreconfiguration term is interval-independent for aligned schedules.
  Cost hyper_term = 0;
  for (std::size_t j = 0; j < m; ++j) {
    hyper_term =
        combine(options.hyper_upload, hyper_term, machine.tasks[j].local_init);
  }

  std::vector<Cost> best(n + 1, kCostInfinity);
  std::vector<std::size_t> parent(n + 1, 0);
  best[0] = 0;
  // The early exit is exact for a non-negative hyper term (proof in
  // core/interval_dp.hpp); only task-sequential upload of negative
  // local_init values makes it negative.
  const bool prune = hyper_term >= 0;

  std::vector<DynamicBitset> running;
  running.reserve(m);
  for (std::size_t j = 0; j < m; ++j) {
    running.emplace_back(trace.task(j).local_universe());
  }
  std::vector<std::size_t> union_sizes(m, 0);
  std::vector<std::uint32_t> max_priv(m, 0);

  // lint: hot-loop begin
  for (std::size_t end = 1; end <= n; ++end) {
    for (DynamicBitset& bits : running) bits.reset_all();
    std::fill(union_sizes.begin(), union_sizes.end(), 0);
    std::fill(max_priv.begin(), max_priv.end(), 0);
    for (std::size_t start = end; start-- > 0;) {
      Cost reconfig_term = static_cast<Cost>(machine.public_context_size);
      for (std::size_t j = 0; j < m; ++j) {
        union_sizes[j] +=
            running[j].merge_counting(trace.task(j).at(start).local);
        max_priv[j] =
            std::max(max_priv[j], trace.task(j).at(start).private_demand);
        reconfig_term = combine(options.reconfig_upload, reconfig_term,
                                static_cast<Cost>(union_sizes[j]) +
                                    static_cast<Cost>(max_priv[j]));
      }
      // Saturating: an adversarial local_init near the Cost maximum clamps
      // at the sentinel instead of wrapping; saturated candidates never
      // beat the sentinel, so parent[end] keeps the single interval.
      const Cost tail =
          cost_mul(reconfig_term, static_cast<Cost>(end - start));
      const Cost candidate = cost_add(cost_add(best[start], hyper_term), tail);
      if (candidate < best[end]) {
        best[end] = candidate;
        parent[end] = start;
      }
      if (prune && cost_add(best[start], tail) >= best[end]) break;
    }
  }
  // lint: hot-loop end

  std::vector<std::size_t> starts;
  for (std::size_t cursor = n; cursor != 0; cursor = parent[cursor]) {
    starts.push_back(parent[cursor]);
  }
  std::reverse(starts.begin(), starts.end());

  MultiTaskSchedule schedule;
  schedule.tasks.assign(m, Partition::from_starts(starts, n));
  if (machine.has_global_resources()) {
    schedule.global_boundaries.push_back(0);
  }
  return make_solution(instance, std::move(schedule));
}

bool aligned_dp_is_exact(const SolveInstance& instance) {
  const MachineSpec& machine = instance.machine();
  const EvalOptions& options = instance.options();
  if (instance.task_count() == 0 || !instance.synchronized() ||
      instance.steps() == 0 || options.changeover ||
      options.hyper_upload != UploadMode::kTaskParallel ||
      machine.has_global_resources()) {
    return false;
  }
  const Cost v = machine.tasks.front().local_init;
  return std::all_of(machine.tasks.begin(), machine.tasks.end(),
                     [v](const TaskSpec& task) { return task.local_init == v; });
}

}  // namespace hyperrec
