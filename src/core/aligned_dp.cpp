#include "core/aligned_dp.hpp"

#include <algorithm>

#include "core/interval_dp.hpp"

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

  std::vector<const TaskTrace*> tasks;
  tasks.reserve(m);
  for (std::size_t j = 0; j < m; ++j) tasks.push_back(&trace.task(j));
  const detail::IntervalDp dp = detail::interval_dp(
      tasks, 0, n, hyper_term,
      static_cast<Cost>(machine.public_context_size), options.reconfig_upload);

  MultiTaskSchedule schedule;
  schedule.tasks.assign(m, Partition::from_starts(dp.starts(), n));
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
