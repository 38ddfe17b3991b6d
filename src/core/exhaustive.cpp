#include "core/exhaustive.hpp"

#include <cmath>
#include <limits>

namespace hyperrec {

double exhaustive_search_space(std::size_t m, std::size_t n) {
  return std::pow(2.0, static_cast<double>(m * (n - 1)));
}

MTSolution solve_exhaustive(const SolveInstance& instance) {
  const MultiTaskTrace& trace = instance.trace();
  const MachineSpec& machine = instance.machine();
  HYPERREC_ENSURE(trace.synchronized(),
                  "exhaustive search needs equal-length traces");
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();
  HYPERREC_ENSURE(n > 0 && m > 0, "empty problem");
  const std::size_t free_bits = m * (n - 1);
  HYPERREC_ENSURE(free_bits <= 24,
                  "exhaustive search limited to m(n-1) <= 24 free boundary "
                  "bits");

  Cost best_cost = std::numeric_limits<Cost>::max();
  std::uint64_t best_code = 0;

  // One schedule and one boundary mask, rebuilt in place per code: at
  // 2^{m(n-1)} evaluations the enumeration loop cannot afford per-code
  // allocations (the mask is inline storage for n <= 64, and
  // assign_boundary_mask reuses each partition's starts vector).
  MultiTaskSchedule schedule;
  schedule.tasks.assign(m, Partition::single(n));
  if (machine.has_global_resources()) {
    schedule.global_boundaries.push_back(0);
  }
  DynamicBitset mask(n);
  auto decode_into = [&](std::uint64_t code) {
    for (std::size_t j = 0; j < m; ++j) {
      mask.reset_all();
      mask.set(0);
      for (std::size_t s = 1; s < n; ++s) {
        if ((code >> (j * (n - 1) + (s - 1))) & 1u) mask.set(s);
      }
      schedule.tasks[j].assign_boundary_mask(mask);
    }
  };

  const MultiTaskTraceStats& stats = instance.stats();
  const std::uint64_t limit = std::uint64_t{1} << free_bits;
  for (std::uint64_t code = 0; code < limit; ++code) {
    decode_into(code);
    const Cost total = detail::evaluate_fully_sync(trace, stats, machine,
                                                   schedule, instance.options())
                           .total;
    if (total < best_cost) {
      best_cost = total;
      best_code = code;
    }
  }
  decode_into(best_code);
  return make_solution_from_tables(instance, schedule);
}

}  // namespace hyperrec
