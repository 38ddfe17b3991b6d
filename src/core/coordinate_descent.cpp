#include "core/coordinate_descent.hpp"

#include "core/aligned_dp.hpp"
#include "core/interval_dp.hpp"
#include "support/cost_math.hpp"

namespace hyperrec {

namespace {

using detail::combine;

/// Per-step aggregates of the frozen tasks (all tasks except `t`).
struct FrozenProfile {
  std::vector<Cost> hyper;     ///< combined hyper term of frozen boundaries
  std::vector<Cost> reconfig;  ///< combined reconfig term incl. |h^pub|
};

FrozenProfile freeze(const SolveInstance& instance,
                     const MultiTaskSchedule& schedule, std::size_t t) {
  const MachineSpec& machine = instance.machine();
  const EvalOptions& options = instance.options();
  const std::size_t n = instance.steps();
  const std::size_t m = instance.task_count();
  FrozenProfile profile;
  profile.hyper.assign(n, 0);
  profile.reconfig.assign(n, static_cast<Cost>(machine.public_context_size));

  for (std::size_t j = 0; j < m; ++j) {
    if (j == t) continue;
    const TaskTraceStats& stats = instance.task_stats(j);
    const Partition& partition = schedule.tasks[j];
    for (std::size_t k = 0; k < partition.interval_count(); ++k) {
      const auto [lo, hi] = partition.interval_bounds(k);
      // The no-allocation count fast path: the frozen profile only needs
      // |U| + priv, never the union bitset itself.
      const Cost size =
          static_cast<Cost>(stats.local_union_count(lo, hi)) +
          static_cast<Cost>(stats.max_private_demand(lo, hi));
      profile.hyper[lo] = combine(options.hyper_upload, profile.hyper[lo],
                                  machine.tasks[j].local_init);
      for (std::size_t l = lo; l < hi; ++l) {
        profile.reconfig[l] =
            combine(options.reconfig_upload, profile.reconfig[l], size);
      }
    }
  }
  return profile;
}

/// Exact DP for task t against a frozen profile; returns its new partition.
Partition optimize_task(const SolveInstance& instance,
                        const FrozenProfile& profile, std::size_t t) {
  const TaskTrace& task = instance.trace().task(t);
  const EvalOptions& options = instance.options();
  const std::size_t n = task.size();
  const Cost v = instance.machine().tasks[t].local_init;

  std::vector<Cost> best(n + 1, kCostInfinity);
  std::vector<std::size_t> parent(n + 1, 0);
  best[0] = 0;

  // For sequential reconfig upload each step of the interval contributes
  // exactly `size` to the delta against the frozen profile — unless
  // cost_add saturates, which can only happen when size pushes some
  // profile.reconfig[l] past the sentinel.  Hoisting the profile maximum
  // lets the DP take the O(1) closed form (size · steps) per candidate
  // interval and fall back to the exact per-step loop only for
  // near-sentinel costs; this turns the dominant O(n³) term into O(n²).
  const bool sequential =
      options.reconfig_upload == UploadMode::kTaskSequential;
  Cost max_reconfig = 0;
  for (const Cost r : profile.reconfig) {
    max_reconfig = std::max(max_reconfig, r);
  }

  // Union sizes come from the interval DPs' shared source; this DP has no
  // early exit, so every scan runs to start 0.
  const std::span<const ContextRequirement> steps = task.requirements();
  const TaskTrace* const tasks[] = {&task};
  detail::UnionScan unions(tasks, 0, n);

  // lint: hot-loop begin
  for (std::size_t end = 1; end <= n; ++end) {
    std::uint32_t max_priv = 0;
    unions.scan<1>(end, [&](std::size_t start,
                            std::span<const std::size_t> union_sizes) {
      max_priv = std::max(max_priv, steps[start].private_demand);
      const Cost size = static_cast<Cost>(union_sizes[0]) +
                        static_cast<Cost>(max_priv);

      const Cost hyper_with =
          combine(options.hyper_upload, profile.hyper[start], v);
      Cost interval_cost = hyper_with - profile.hyper[start];
      if (sequential && size <= kCostInfinity - max_reconfig) {
        interval_cost = cost_add(
            interval_cost, cost_mul(size, static_cast<Cost>(end - start)));
      } else {
        for (std::size_t l = start; l < end; ++l) {
          interval_cost = cost_add(
              interval_cost,
              combine(options.reconfig_upload, profile.reconfig[l], size) -
                  profile.reconfig[l]);
        }
      }
      const Cost candidate = cost_add(best[start], interval_cost);
      if (candidate < best[end]) {
        best[end] = candidate;
        parent[end] = start;
      }
      return true;
    });
  }
  // lint: hot-loop end

  std::vector<std::size_t> starts;
  for (std::size_t cursor = n; cursor != 0; cursor = parent[cursor]) {
    starts.push_back(parent[cursor]);
  }
  std::reverse(starts.begin(), starts.end());
  return Partition::from_starts(starts, n);
}

}  // namespace

MTSolution solve_coordinate_descent(const SolveInstance& instance,
                                    const CoordinateDescentConfig& config) {
  const MultiTaskTrace& trace = instance.trace();
  const MachineSpec& machine = instance.machine();
  const EvalOptions& options = instance.options();
  HYPERREC_ENSURE(trace.synchronized(),
                  "coordinate descent needs equal-length traces");
  HYPERREC_ENSURE(!options.changeover,
                  "coordinate descent does not support changeover costs");
  HYPERREC_ENSURE(config.seed.size() <= 1, "at most one seed schedule");

  MultiTaskSchedule schedule = [&]() {
    if (!config.seed.empty()) return config.seed.front();
    if (config.cancel.cancelled()) {
      // Expired before any work: skip the aligned-DP seeding (it could blow
      // the deadline) and start from the single-interval schedule.
      MultiTaskSchedule single =
          MultiTaskSchedule::all_single(trace.task_count(), trace.steps());
      if (machine.has_global_resources()) single.global_boundaries.push_back(0);
      return single;
    }
    return solve_aligned_dp(instance).schedule;
  }();
  // Every round prices m trial schedules: query the instance's tables.
  const MultiTaskTraceStats& stats = instance.stats();
  auto cost_of = [&](const MultiTaskSchedule& candidate) {
    return detail::evaluate_fully_sync(trace, stats, machine, candidate,
                                       options)
        .total;
  };
  Cost current = cost_of(schedule);

  const std::size_t m = trace.task_count();
  // lint: hot-loop begin
  for (std::size_t round = 0; round < config.max_rounds; ++round) {
    bool improved = false;
    for (std::size_t t = 0; t < m; ++t) {
      if (config.cancel.cancelled()) {
        return make_solution_from_tables(instance, std::move(schedule));
      }
      const FrozenProfile profile = freeze(instance, schedule, t);
      Partition candidate = optimize_task(instance, profile, t);
      MultiTaskSchedule trial = schedule;
      trial.tasks[t] = std::move(candidate);
      const Cost trial_cost = cost_of(trial);
      if (trial_cost < current) {
        schedule = std::move(trial);
        current = trial_cost;
        improved = true;
      }
    }
    if (!improved) break;
  }
  // lint: hot-loop end
  return make_solution_from_tables(instance, std::move(schedule));
}

}  // namespace hyperrec
