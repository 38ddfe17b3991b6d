#include "model/cost_switch.hpp"

#include <algorithm>

#include "model/instance.hpp"
#include "model/trace_stats.hpp"

namespace hyperrec {

namespace {

AsyncCostBreakdown evaluate_async_impl(const MultiTaskTrace& trace,
                                       const MultiTaskTraceStats& stats,
                                       const MachineSpec& machine,
                                       const MultiTaskSchedule& schedule,
                                       const EvalOptions& options) {
  machine.validate_trace(trace);
  HYPERREC_ENSURE(machine.public_context_size == 0,
                  "public resources require a context- or fully-synchronised "
                  "machine (§3)");
  HYPERREC_ENSURE(schedule.tasks.size() == trace.task_count(),
                  "schedule task count mismatch");
  HYPERREC_ENSURE(schedule.global_boundaries.size() <= 1,
                  "asynchronous evaluation covers a single global block");
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    HYPERREC_ENSURE(schedule.tasks[j].n() == trace.task(j).size(),
                    "schedule step count mismatch for task");
  }

  // Private feasibility over the single block.
  if (machine.private_global_units > 0) {
    std::uint64_t quota_sum = 0;
    for (std::size_t j = 0; j < trace.task_count(); ++j) {
      quota_sum += stats.task(j).max_private_demand(0, trace.task(j).size());
    }
    HYPERREC_ENSURE(quota_sum <= machine.private_global_units,
                    "private-global demand exceeds the unit pool");
  }

  AsyncCostBreakdown breakdown;
  breakdown.per_task.resize(trace.task_count(), 0);
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    const TaskTraceStats& task = stats.task(j);
    const Partition& partition = schedule.tasks[j];
    Cost total = 0;
    std::vector<DynamicBitset> unions;
    if (options.changeover) unions.reserve(partition.interval_count());
    for (std::size_t k = 0; k < partition.interval_count(); ++k) {
      const auto [start, end] = partition.interval_bounds(k);
      const Cost reconfig_each =
          static_cast<Cost>(task.local_union_count(start, end)) +
          static_cast<Cost>(task.max_private_demand(start, end));
      if (options.changeover) unions.push_back(task.local_union(start, end));
      total +=
          detail::local_hyper_cost(machine, j, unions, k, options.changeover);
      total += reconfig_each * static_cast<Cost>(end - start);
    }
    breakdown.per_task[j] = total;
  }
  breakdown.global_hyper =
      machine.has_global_resources() ? machine.global_init : 0;
  const Cost slowest = breakdown.per_task.empty()
                           ? 0
                           : *std::max_element(breakdown.per_task.begin(),
                                               breakdown.per_task.end());
  breakdown.total = breakdown.global_hyper + slowest;
  return breakdown;
}

}  // namespace

std::vector<std::vector<LocalHypercontext>> derive_local_hypercontexts(
    const MultiTaskTraceStats& stats, const MultiTaskSchedule& schedule) {
  std::vector<std::vector<LocalHypercontext>> result(stats.task_count());
  for (std::size_t j = 0; j < stats.task_count(); ++j) {
    const TaskTraceStats& task = stats.task(j);
    const Partition& partition = schedule.tasks[j];
    result[j].reserve(partition.interval_count());
    for (std::size_t k = 0; k < partition.interval_count(); ++k) {
      const auto [start, end] = partition.interval_bounds(k);
      result[j].push_back(LocalHypercontext{
          task.local_union(start, end),
          task.max_private_demand(start, end)});
    }
  }
  return result;
}

std::vector<std::vector<LocalHypercontext>> derive_local_hypercontexts(
    const MultiTaskTrace& trace, const MultiTaskSchedule& schedule) {
  return derive_local_hypercontexts(MultiTaskTraceStats(trace), schedule);
}

CostBreakdown evaluate_fully_sync_switch(const MultiTaskTrace& trace,
                                         const MachineSpec& machine,
                                         const MultiTaskSchedule& schedule,
                                         const EvalOptions& options) {
  return detail::evaluate_fully_sync(MultiTaskTraceStats(trace), machine,
                                     schedule, options);
}

CostBreakdown evaluate_fully_sync_switch(const SolveInstance& instance,
                                         const MultiTaskSchedule& schedule) {
  return detail::evaluate_fully_sync(instance.stats(), instance.machine(),
                                     schedule, instance.options());
}

AsyncCostBreakdown evaluate_async_switch(const MultiTaskTrace& trace,
                                         const MachineSpec& machine,
                                         const MultiTaskSchedule& schedule,
                                         const EvalOptions& options) {
  return evaluate_async_impl(trace, MultiTaskTraceStats(trace), machine,
                             schedule, options);
}

AsyncCostBreakdown evaluate_async_switch(const SolveInstance& instance,
                                         const MultiTaskSchedule& schedule) {
  return evaluate_async_impl(instance.trace(), instance.stats(),
                             instance.machine(), schedule, instance.options());
}

Cost no_hyperreconfiguration_cost(const MachineSpec& machine,
                                  std::size_t steps) {
  return static_cast<Cost>(machine.total_switches()) *
         static_cast<Cost>(steps);
}

Cost evaluate_switch_total(SyncMode mode, const MultiTaskTrace& trace,
                           const MachineSpec& machine,
                           const MultiTaskSchedule& schedule,
                           const EvalOptions& options) {
  switch (mode) {
    case SyncMode::kFullySynchronized:
      return evaluate_fully_sync_switch(trace, machine, schedule, options)
          .total;
    case SyncMode::kHypercontextSynchronized: {
      EvalOptions adjusted = options;
      adjusted.reconfig_upload = UploadMode::kTaskParallel;
      return evaluate_fully_sync_switch(trace, machine, schedule, adjusted)
          .total;
    }
    case SyncMode::kContextSynchronized: {
      EvalOptions adjusted = options;
      adjusted.hyper_upload = UploadMode::kTaskParallel;
      return evaluate_fully_sync_switch(trace, machine, schedule, adjusted)
          .total;
    }
    case SyncMode::kNonSynchronized:
      return evaluate_async_switch(trace, machine, schedule, options).total;
  }
  HYPERREC_ASSERT(false);
}

}  // namespace hyperrec
