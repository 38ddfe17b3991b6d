#include "model/cost_switch.hpp"

#include <algorithm>

#include "model/instance.hpp"
#include "model/trace_stats.hpp"

namespace hyperrec {

namespace {

/// Cost of task j's local hyperreconfiguration into interval k, including
/// the optional changeover term against the previous hypercontext (the
/// first one diffs against ∅).
Cost local_hyper_cost(const MachineSpec& machine, std::size_t j,
                      const std::vector<DynamicBitset>& unions, std::size_t k,
                      bool changeover) {
  Cost cost = machine.tasks[j].local_init;
  if (changeover) {
    const DynamicBitset& current = unions[k];
    cost = cost_add(
        cost, static_cast<Cost>(
                  k == 0 ? current.count()
                         : current.symmetric_difference_count(unions[k - 1])));
  }
  return cost;
}

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
      // Saturating sums, as in the §4.2 evaluator: a near-maximum v_j reads
      // as kCostInfinity instead of wrapping.
      total = cost_add(
          total, local_hyper_cost(machine, j, unions, k, options.changeover));
      total = cost_add(total, cost_mul(reconfig_each,
                                       static_cast<Cost>(end - start)));
    }
    breakdown.per_task[j] = total;
  }
  breakdown.global_hyper =
      machine.has_global_resources() ? machine.global_init : 0;
  const Cost slowest = breakdown.per_task.empty()
                           ? 0
                           : *std::max_element(breakdown.per_task.begin(),
                                               breakdown.per_task.end());
  breakdown.total = cost_add(breakdown.global_hyper, slowest);
  return breakdown;
}

}  // namespace

namespace detail {

CostBreakdown evaluate_fully_sync(const MultiTaskTrace& trace,
                                  const MultiTaskTraceStats& stats,
                                  const MachineSpec& machine,
                                  const MultiTaskSchedule& schedule,
                                  const EvalOptions& options) {
  machine.validate_trace(trace);
  HYPERREC_ENSURE(trace.synchronized(),
                  "fully synchronised evaluation requires equal-length traces");
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();
  schedule.validate(m, n);
  const std::vector<std::size_t>& bounds = schedule.global_boundaries;
  if (machine.has_global_resources()) {
    HYPERREC_ENSURE(!bounds.empty() && bounds.front() == 0,
                    "machines with global resources need a global "
                    "hyperreconfiguration at step 0");
  } else {
    HYPERREC_ENSURE(bounds.empty(),
                    "machines without global resources cannot perform global "
                    "hyperreconfigurations");
  }

  // §3 quota rule: within every global block the per-task private quotas
  // must fit into the machine's pool of g units.  Block bounds [lo, hi) are
  // walked without materialising a boundary vector — the exhaustive and
  // coordinate-descent loops evaluate millions of schedules.
  if (const std::uint64_t pool = machine.private_global_units; pool > 0) {
    const std::size_t blocks = bounds.empty() ? 1 : bounds.size();
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t lo = bounds.empty() ? 0 : bounds[b];
      const std::size_t hi = (b + 1 < bounds.size()) ? bounds[b + 1] : n;
      // The per-step demand sum is a lower bound on the quota sum, so the
      // O(1) cross-task query short-circuits clearly infeasible blocks.
      HYPERREC_ENSURE(stats.max_step_demand_sum(lo, hi) <= pool &&
                          stats.block_quota_sum(lo, hi) <= pool,
                      "private-global demand exceeds the unit pool within a "
                      "global block; insert a global hyperreconfiguration");
    }
  }

  // Per task: interval sizes |U| + priv from the stats tables, flattened
  // into one arena indexed by a per-task offset + interval cursor (one
  // allocation instead of one per task).  Union bitsets are materialised
  // only under changeover (the Δ term needs the actual sets).
  struct TaskCursor {
    std::size_t offset = 0;  ///< task's first entry in flat_sizes
    std::size_t k = 0;       ///< interval index at the current step
  };
  std::vector<TaskCursor> cursors(m);
  std::size_t total_intervals = 0;
  for (std::size_t j = 0; j < m; ++j) {
    total_intervals += schedule.tasks[j].interval_count();
  }
  std::vector<Cost> flat_sizes;
  flat_sizes.reserve(total_intervals);
  std::vector<std::vector<DynamicBitset>> unions(options.changeover ? m : 0);
  for (std::size_t j = 0; j < m; ++j) {
    const TaskTraceStats& task = stats.task(j);
    const Partition& partition = schedule.tasks[j];
    cursors[j].offset = flat_sizes.size();
    if (options.changeover) unions[j].reserve(partition.interval_count());
    for (std::size_t k = 0; k < partition.interval_count(); ++k) {
      const auto [start, end] = partition.interval_bounds(k);
      flat_sizes.push_back(
          static_cast<Cost>(task.local_union_count(start, end)) +
          static_cast<Cost>(task.max_private_demand(start, end)));
      if (options.changeover) unions[j].push_back(task.local_union(start, end));
    }
  }

  CostBreakdown breakdown;
  for (std::size_t l = 0; l < n; ++l) {
    bool any_boundary = false;
    Cost hyper_term = 0;
    // |h^pub| participates in the max for task-parallel upload and is added
    // once for task-sequential — both are the combine starting value.
    Cost reconfig_term = static_cast<Cost>(machine.public_context_size);

    for (std::size_t j = 0; j < m; ++j) {
      const Partition& partition = schedule.tasks[j];
      // The cursor knows the next boundary (starts are sorted and walked in
      // step order), so no per-step binary search.
      const std::size_t next = cursors[j].k + 1;
      const bool boundary =
          l == 0 || (next < partition.interval_count() &&
                     partition.starts()[next] == l);
      if (boundary && l > 0) cursors[j].k = next;
      const std::size_t k = cursors[j].k;
      if (boundary) {
        any_boundary = true;
        hyper_term = combine(
            options.hyper_upload, hyper_term,
            options.changeover
                ? local_hyper_cost(machine, j, unions[j], k, true)
                : machine.tasks[j].local_init);
      }
      reconfig_term = combine(options.reconfig_upload, reconfig_term,
                              flat_sizes[cursors[j].offset + k]);
    }

    if (any_boundary) ++breakdown.partial_hyper_steps;
    breakdown.hyper = cost_add(breakdown.hyper, hyper_term);
    breakdown.reconfig = cost_add(breakdown.reconfig, reconfig_term);
    if (std::binary_search(bounds.begin(), bounds.end(), l)) {
      breakdown.global_hyper =
          cost_add(breakdown.global_hyper, machine.global_init);
    }
  }
  // Saturating sums: a total beyond the sentinel reads as kCostInfinity
  // instead of wrapping.
  breakdown.total = cost_add(cost_add(breakdown.hyper, breakdown.reconfig),
                             breakdown.global_hyper);
  return breakdown;
}

}  // namespace detail

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
  return detail::evaluate_fully_sync(trace, MultiTaskTraceStats(trace),
                                     machine, schedule, options);
}

CostBreakdown evaluate_fully_sync_switch(const SolveInstance& instance,
                                         const MultiTaskSchedule& schedule) {
  return detail::evaluate_fully_sync(instance.trace(), instance.stats(),
                                     instance.machine(), schedule,
                                     instance.options());
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
