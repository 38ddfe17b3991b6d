#include "testutil/reference_eval.hpp"

#include <algorithm>

namespace hyperrec::testutil {

Cost reference_fully_sync(const MultiTaskTrace& trace,
                          const MachineSpec& machine,
                          const MultiTaskSchedule& schedule,
                          const EvalOptions& options) {
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();
  auto combine = [](UploadMode mode, Cost a, Cost b) {
    return mode == UploadMode::kTaskParallel ? std::max(a, b) : a + b;
  };

  Cost total = 0;
  for (std::size_t l = 0; l < n; ++l) {
    Cost hyper = 0;
    Cost reconfig = static_cast<Cost>(machine.public_context_size);
    for (std::size_t j = 0; j < m; ++j) {
      const Partition& partition = schedule.tasks[j];
      const std::size_t k = partition.interval_of(l);
      const auto [lo, hi] = partition.interval_bounds(k);
      const DynamicBitset h = trace.task(j).local_union_naive(lo, hi);
      const std::uint32_t priv = trace.task(j).max_private_demand_naive(lo, hi);

      if (partition.is_boundary(l)) {
        Cost v = machine.tasks[j].local_init;
        if (options.changeover) {
          if (k == 0) {
            v += static_cast<Cost>(h.count());
          } else {
            const auto [plo, phi] = partition.interval_bounds(k - 1);
            const DynamicBitset prev = trace.task(j).local_union_naive(plo, phi);
            v += static_cast<Cost>(h.symmetric_difference_count(prev));
          }
        }
        hyper = combine(options.hyper_upload, hyper, v);
      }
      reconfig = combine(options.reconfig_upload, reconfig,
                         static_cast<Cost>(h.count()) +
                             static_cast<Cost>(priv));
    }
    total += hyper + reconfig;
    for (const std::size_t g : schedule.global_boundaries) {
      if (g == l) total += machine.global_init;
    }
  }
  return total;
}

CostBreakdown reference_fully_sync_breakdown(const MultiTaskTrace& trace,
                                             const MachineSpec& machine,
                                             const MultiTaskSchedule& schedule,
                                             const EvalOptions& options) {
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();
  auto combine = [](UploadMode mode, Cost a, Cost b) {
    return mode == UploadMode::kTaskParallel ? std::max(a, b) : a + b;
  };

  CostBreakdown breakdown;
  for (std::size_t l = 0; l < n; ++l) {
    bool any_boundary = false;
    Cost hyper = 0;
    Cost reconfig = static_cast<Cost>(machine.public_context_size);
    for (std::size_t j = 0; j < m; ++j) {
      const Partition& partition = schedule.tasks[j];
      const std::size_t k = partition.interval_of(l);
      const auto [lo, hi] = partition.interval_bounds(k);
      const DynamicBitset h = trace.task(j).local_union_naive(lo, hi);
      const std::uint32_t priv = trace.task(j).max_private_demand_naive(lo, hi);

      if (partition.is_boundary(l)) {
        any_boundary = true;
        Cost v = machine.tasks[j].local_init;
        if (options.changeover) {
          if (k == 0) {
            v += static_cast<Cost>(h.count());
          } else {
            const auto [plo, phi] = partition.interval_bounds(k - 1);
            const DynamicBitset prev =
                trace.task(j).local_union_naive(plo, phi);
            v += static_cast<Cost>(h.symmetric_difference_count(prev));
          }
        }
        hyper = combine(options.hyper_upload, hyper, v);
      }
      reconfig = combine(options.reconfig_upload, reconfig,
                         static_cast<Cost>(h.count()) +
                             static_cast<Cost>(priv));
    }
    if (any_boundary) ++breakdown.partial_hyper_steps;
    breakdown.hyper += hyper;
    breakdown.reconfig += reconfig;
    for (const std::size_t g : schedule.global_boundaries) {
      if (g == l) breakdown.global_hyper += machine.global_init;
    }
  }
  breakdown.total =
      breakdown.hyper + breakdown.reconfig + breakdown.global_hyper;
  return breakdown;
}

}  // namespace hyperrec::testutil
