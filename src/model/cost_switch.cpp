#include "model/cost_switch.hpp"

#include <algorithm>
#include <utility>

#include "model/instance.hpp"
#include "model/trace_stats.hpp"

namespace hyperrec {

namespace {

/// One pass over task steps [start, end): ORs their local requirements into
/// `local` (cleared first) and returns their peak private demand.
std::uint32_t scan_interval(const TaskTrace& task, std::size_t start,
                            std::size_t end, DynamicBitset& local) {
  local.reset_all();
  std::uint32_t peak = 0;
  for (std::size_t i = start; i < end; ++i) {
    const ContextRequirement& req = task.at(i);
    local |= req.local;
    peak = std::max(peak, req.private_demand);
  }
  return peak;
}

/// Shape checks of the §4.2 evaluator, shared by both sources of facts.
void check_fully_sync(const MultiTaskTrace& trace, const MachineSpec& machine,
                      const MultiTaskSchedule& schedule) {
  machine.validate_trace(trace);
  HYPERREC_ENSURE(trace.synchronized(),
                  "fully synchronised evaluation requires equal-length traces");
  detail::check_schedule(machine, schedule, trace.steps());
}

/// True iff every task starts an interval at `step` and, on machines with
/// global resources, a global hyperreconfiguration happens there.
bool is_seam(const MachineSpec& machine, const MultiTaskSchedule& schedule,
             std::size_t step) {
  for (const Partition& partition : schedule.tasks) {
    if (!std::binary_search(partition.starts().begin(),
                            partition.starts().end(), step)) {
      return false;
    }
  }
  const std::vector<std::size_t>& bounds = schedule.global_boundaries;
  return !machine.has_global_resources() ||
         std::binary_search(bounds.begin(), bounds.end(), step);
}

/// One task's place in the walk.
struct TaskWalk {
  std::size_t next = 0;           ///< index of its next interval start
  Cost size = 0;                  ///< |U| + priv of its current interval
  std::uint32_t block_peak = 0;   ///< peak demand in the current block
  DynamicBitset local;            ///< the union of the interval entered
  DynamicBitset previous;         ///< changeover: the current interval's union
};

/// The §4.2 step walk of a checked schedule over n steps, from seam `from`
/// to `to` (a seam or n).  Entering an interval [l, end), a task asks
/// interval_of(j, l, end, local) for its union size and peak demand; under
/// changeover it must also leave the union in `local`.  A global block's
/// quota (§3: Σ_j peak_j ≤ g) is checked when the block closes — no block
/// crosses a seam, so the blocks walked are whole.
template <typename IntervalOf>
detail::Seam walk_steps(const MachineSpec& machine,
                        const MultiTaskSchedule& schedule,
                        const EvalOptions& options, const detail::Seam& from,
                        std::size_t to, std::size_t n,
                        IntervalOf&& interval_of) {
  HYPERREC_ENSURE(from.step <= to && to <= n, "walk range out of bounds");
  if (from.step == to) return from;
  HYPERREC_ENSURE(is_seam(machine, schedule, from.step) &&
                      (to == n || is_seam(machine, schedule, to)),
                  "a walk runs from a seam to a seam or the end: steps where "
                  "every task, and on machines with global resources a "
                  "global hyperreconfiguration, starts an interval");
  HYPERREC_ENSURE(!options.changeover || from.step == 0 ||
                      from.hypercontexts.size() == schedule.tasks.size(),
                  "a changeover walk resumes with every task's hypercontext");
  const std::size_t m = schedule.tasks.size();
  std::vector<TaskWalk> walks(m);
  for (std::size_t j = 0; j < m; ++j) {
    const std::vector<std::size_t>& starts = schedule.tasks[j].starts();
    walks[j].next = static_cast<std::size_t>(
        std::lower_bound(starts.begin(), starts.end(), from.step) -
        starts.begin());
    walks[j].local = DynamicBitset(machine.tasks[j].local_switches);
    // The first hypercontext diffs against ∅; a resumed one against the
    // seam's.
    if (options.changeover) {
      walks[j].previous = from.step == 0 ? walks[j].local
                                         : from.hypercontexts[j];
    }
  }
  const auto close_block = [&] {
    std::uint64_t quota = 0;
    for (TaskWalk& walk : walks) {
      quota += walk.block_peak;
      walk.block_peak = 0;
    }
    HYPERREC_ENSURE(quota <= machine.private_global_units,
                    "private-global demand exceeds the unit pool within a "
                    "global block; insert a global hyperreconfiguration");
  };

  const std::vector<std::size_t>& bounds = schedule.global_boundaries;
  auto global = std::lower_bound(bounds.begin(), bounds.end(), from.step);
  detail::Seam at{to, from.sums, {}};
  CostBreakdown& sums = at.sums;
  for (std::size_t l = from.step; l < to; ++l) {
    if (global != bounds.end() && *global == l) {
      if (l > from.step) close_block();
      sums.global_hyper = cost_add(sums.global_hyper, machine.global_init);
      ++global;
    }
    bool any_boundary = false;
    Cost hyper_term = 0;
    // |h^pub| participates in the max for task-parallel upload and is added
    // once for task-sequential — both are the combine starting value.
    Cost reconfig_term = static_cast<Cost>(machine.public_context_size);
    for (std::size_t j = 0; j < m; ++j) {
      TaskWalk& walk = walks[j];
      // Starts are sorted and walked in step order, so the next one is the
      // only candidate: no per-step search.
      const std::vector<std::size_t>& starts = schedule.tasks[j].starts();
      if (walk.next < starts.size() && starts[walk.next] == l) {
        ++walk.next;
        const std::size_t end =
            walk.next < starts.size() ? starts[walk.next] : n;
        const auto [count, peak] = interval_of(j, l, end, walk.local);
        walk.size = static_cast<Cost>(count) + static_cast<Cost>(peak);
        walk.block_peak = std::max(walk.block_peak, peak);
        // A local hyperreconfiguration costs v_j, plus under changeover
        // |h_new Δ h_old|.
        Cost cost = machine.tasks[j].local_init;
        if (options.changeover) {
          cost = cost_add(cost, static_cast<Cost>(
                                    walk.local.symmetric_difference_count(
                                        walk.previous)));
          std::swap(walk.local, walk.previous);
        }
        any_boundary = true;
        hyper_term = detail::combine(options.hyper_upload, hyper_term, cost);
      }
      reconfig_term =
          detail::combine(options.reconfig_upload, reconfig_term, walk.size);
    }
    if (any_boundary) ++sums.partial_hyper_steps;
    sums.hyper = cost_add(sums.hyper, hyper_term);
    sums.reconfig = cost_add(sums.reconfig, reconfig_term);
  }
  close_block();
  // Saturating sums: a total beyond the sentinel reads as kCostInfinity
  // instead of wrapping.
  sums.total = cost_add(cost_add(sums.hyper, sums.reconfig), sums.global_hyper);
  if (options.changeover) {
    for (TaskWalk& walk : walks) {
      at.hypercontexts.push_back(std::move(walk.previous));
    }
  }
  return at;
}

}  // namespace

namespace detail {

Seam walk_fully_sync(const MultiTaskTrace& trace, const MachineSpec& machine,
                     const MultiTaskSchedule& schedule,
                     const EvalOptions& options, const Seam& from,
                     std::size_t to) {
  // Interval facts from one pass over the walked steps.
  return walk_steps(machine, schedule, options, from, to, trace.steps(),
                    [&](std::size_t j, std::size_t start, std::size_t end,
                        DynamicBitset& local) {
                      const std::uint32_t peak =
                          scan_interval(trace.task(j), start, end, local);
                      return std::pair{local.count(), peak};
                    });
}

void check_schedule(const MachineSpec& machine,
                    const MultiTaskSchedule& schedule, std::size_t n) {
  schedule.validate(machine.task_count(), n);
  if (machine.has_global_resources()) {
    HYPERREC_ENSURE(!schedule.global_boundaries.empty() &&
                        schedule.global_boundaries.front() == 0,
                    "machines with global resources need a global "
                    "hyperreconfiguration at step 0");
  } else {
    HYPERREC_ENSURE(schedule.global_boundaries.empty(),
                    "machines without global resources cannot perform global "
                    "hyperreconfigurations");
  }
}

CostBreakdown evaluate_fully_sync(const MultiTaskTrace& trace,
                                  const MultiTaskTraceStats& stats,
                                  const MachineSpec& machine,
                                  const MultiTaskSchedule& schedule,
                                  const EvalOptions& options) {
  check_fully_sync(trace, machine, schedule);
  return walk_steps(machine, schedule, options, Seam{}, trace.steps(),
                    trace.steps(),
                    [&](std::size_t j, std::size_t start, std::size_t end,
                        DynamicBitset& local) {
                      const TaskTraceStats& task = stats.task(j);
                      if (options.changeover) {
                        local = task.local_union(start, end);
                      }
                      return std::pair{
                          options.changeover
                              ? local.count()
                              : task.local_union_count(start, end),
                          task.max_private_demand(start, end)};
                    })
      .sums;
}

}  // namespace detail

std::vector<std::vector<LocalHypercontext>> derive_local_hypercontexts(
    const MultiTaskTrace& trace, const MultiTaskSchedule& schedule) {
  HYPERREC_ENSURE(schedule.tasks.size() == trace.task_count(),
                  "schedule task count mismatch");
  std::vector<std::vector<LocalHypercontext>> result(trace.task_count());
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    const Partition& partition = schedule.tasks[j];
    HYPERREC_ENSURE(partition.n() == trace.task(j).size(),
                    "schedule step count mismatch for task");
    result[j].reserve(partition.interval_count());
    DynamicBitset local(trace.task(j).local_universe());
    for (std::size_t k = 0; k < partition.interval_count(); ++k) {
      const auto [start, end] = partition.interval_bounds(k);
      const std::uint32_t peak = scan_interval(trace.task(j), start, end, local);
      result[j].push_back(LocalHypercontext{local, peak});
    }
  }
  return result;
}

CostBreakdown evaluate_fully_sync_switch(const MultiTaskTrace& trace,
                                         const MachineSpec& machine,
                                         const MultiTaskSchedule& schedule,
                                         const EvalOptions& options) {
  check_fully_sync(trace, machine, schedule);
  return detail::walk_fully_sync(trace, machine, schedule, options,
                                 detail::Seam{}, trace.steps())
      .sums;
}

CostBreakdown evaluate_fully_sync_switch(const SolveInstance& instance,
                                         const MultiTaskSchedule& schedule) {
  return evaluate_fully_sync_switch(instance.trace(), instance.machine(),
                                    schedule, instance.options());
}

AsyncCostBreakdown evaluate_async_switch(const MultiTaskTrace& trace,
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

  AsyncCostBreakdown breakdown;
  breakdown.per_task.resize(trace.task_count(), 0);
  std::uint64_t quota = 0;  // the single block's Σ_j peak_j
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    const Partition& partition = schedule.tasks[j];
    DynamicBitset local(trace.task(j).local_universe());
    DynamicBitset previous = local;  // the first hypercontext diffs against ∅
    std::uint32_t task_peak = 0;
    Cost total = 0;
    for (std::size_t k = 0; k < partition.interval_count(); ++k) {
      const auto [start, end] = partition.interval_bounds(k);
      const std::uint32_t peak = scan_interval(trace.task(j), start, end, local);
      task_peak = std::max(task_peak, peak);
      const Cost size = static_cast<Cost>(local.count()) + peak;
      // Saturating sums, as in the §4.2 evaluator: a near-maximum v_j reads
      // as kCostInfinity instead of wrapping.
      Cost hyper = machine.tasks[j].local_init;
      if (options.changeover) {
        hyper = cost_add(hyper, static_cast<Cost>(
                                    local.symmetric_difference_count(previous)));
        std::swap(local, previous);
      }
      total = cost_add(total, hyper);
      total = cost_add(total, cost_mul(size, static_cast<Cost>(end - start)));
    }
    breakdown.per_task[j] = total;
    quota += task_peak;
  }
  // Private feasibility over the single block.
  HYPERREC_ENSURE(quota <= machine.private_global_units,
                  "private-global demand exceeds the unit pool");
  breakdown.global_hyper =
      machine.has_global_resources() ? machine.global_init : 0;
  const Cost slowest = breakdown.per_task.empty()
                           ? 0
                           : *std::max_element(breakdown.per_task.begin(),
                                               breakdown.per_task.end());
  breakdown.total = cost_add(breakdown.global_hyper, slowest);
  return breakdown;
}

AsyncCostBreakdown evaluate_async_switch(const SolveInstance& instance,
                                         const MultiTaskSchedule& schedule) {
  return evaluate_async_switch(instance.trace(), instance.machine(), schedule,
                               instance.options());
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
