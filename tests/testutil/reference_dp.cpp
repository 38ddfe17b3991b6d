#include "testutil/reference_dp.hpp"

#include <algorithm>

#include "support/bitset_kernels.hpp"
#include "support/cost_math.hpp"

namespace hyperrec::testutil {

namespace {

std::vector<std::size_t> starts_from(const std::vector<std::size_t>& parent) {
  std::vector<std::size_t> starts;
  for (std::size_t cursor = parent.size() - 1; cursor != 0;
       cursor = parent[cursor]) {
    starts.push_back(parent[cursor]);
  }
  std::reverse(starts.begin(), starts.end());
  return starts;
}

/// Counts the starts below `start` once the early-exit rule first holds in
/// a scan; `stopped` marks that scan as counted.
void observe_exit(Cost best_start, Cost tail, Cost best_end, std::size_t start,
                  bool& stopped, std::size_t& skippable) {
  if (!stopped && cost_add(best_start, tail) >= best_end) {
    stopped = true;
    skippable += start;
  }
}

Cost combine(UploadMode mode, Cost acc, Cost value) {
  return mode == UploadMode::kTaskParallel ? std::max(acc, value)
                                           : cost_add(acc, value);
}

}  // namespace

SingleTaskSolution reference_single_task_switch(const TaskTrace& trace,
                                                Cost hyper_init,
                                                std::size_t* skippable) {
  const std::size_t n = trace.size();
  HYPERREC_ENSURE(n > 0, "empty trace");

  std::vector<Cost> best(n + 1, kCostInfinity);
  std::vector<std::size_t> parent(n + 1, 0);
  best[0] = 0;
  std::size_t skipped = 0;

  if (trace.local_universe() <= DynamicBitset::kWordBits) {
    using Word = DynamicBitset::Word;
    std::vector<Word> locals(n, 0);
    std::vector<std::uint32_t> demands(n);
    for (std::size_t i = 0; i < n; ++i) {
      const ContextRequirement& req = trace.at(i);
      if (!req.local.words().empty()) locals[i] = req.local.words().front();
      demands[i] = req.private_demand;
    }
    for (std::size_t end = 1; end <= n; ++end) {
      Word running = 0;
      bool stopped = false;
      std::size_t union_size = 0;
      std::uint32_t max_priv = 0;
      for (std::size_t start = end; start-- > 0;) {
        const Word local = locals[start];
        union_size += kernels::popcount_word(local & ~running);
        running |= local;
        max_priv = std::max(max_priv, demands[start]);
        const Cost per_step =
            static_cast<Cost>(union_size) + static_cast<Cost>(max_priv);
        const Cost candidate =
            cost_add(cost_add(best[start], hyper_init),
                     cost_mul(per_step, static_cast<Cost>(end - start)));
        if (candidate < best[end]) {
          best[end] = candidate;
          parent[end] = start;
        }
        observe_exit(best[start],
                     cost_mul(per_step, static_cast<Cost>(end - start)),
                     best[end], start, stopped, skipped);
      }
    }
  } else {
    DynamicBitset running(trace.local_universe());
    for (std::size_t end = 1; end <= n; ++end) {
      running.reset_all();
      bool stopped = false;
      std::size_t union_size = 0;
      std::uint32_t max_priv = 0;
      for (std::size_t start = end; start-- > 0;) {
        union_size += running.merge_counting(trace.at(start).local);
        max_priv = std::max(max_priv, trace.at(start).private_demand);
        const Cost per_step =
            static_cast<Cost>(union_size) + static_cast<Cost>(max_priv);
        const Cost candidate =
            cost_add(cost_add(best[start], hyper_init),
                     cost_mul(per_step, static_cast<Cost>(end - start)));
        if (candidate < best[end]) {
          best[end] = candidate;
          parent[end] = start;
        }
        observe_exit(best[start],
                     cost_mul(per_step, static_cast<Cost>(end - start)),
                     best[end], start, stopped, skipped);
      }
    }
  }

  if (skippable != nullptr) *skippable = skipped;
  SingleTaskSolution solution{Partition::from_starts(starts_from(parent), n),
                              best[n], {}};
  for (std::size_t k = 0; k < solution.partition.interval_count(); ++k) {
    const auto [lo, hi] = solution.partition.interval_bounds(k);
    DynamicBitset hypercontext(trace.local_universe());
    for (std::size_t l = lo; l < hi; ++l) hypercontext |= trace.at(l).local;
    solution.hypercontexts.push_back(std::move(hypercontext));
  }
  return solution;
}

MTSolution reference_aligned_dp(const SolveInstance& instance,
                               std::size_t* skippable) {
  const MultiTaskTrace& trace = instance.trace();
  const MachineSpec& machine = instance.machine();
  const EvalOptions& options = instance.options();
  HYPERREC_ENSURE(trace.synchronized(), "aligned DP needs equal-length traces");
  HYPERREC_ENSURE(!options.changeover, "aligned DP has no changeover costs");
  const std::size_t n = trace.steps();
  const std::size_t m = trace.task_count();
  HYPERREC_ENSURE(n > 0 && m > 0, "empty problem");

  Cost hyper_term = 0;
  for (std::size_t j = 0; j < m; ++j) {
    hyper_term =
        combine(options.hyper_upload, hyper_term, machine.tasks[j].local_init);
  }

  std::vector<Cost> best(n + 1, kCostInfinity);
  std::vector<std::size_t> parent(n + 1, 0);
  best[0] = 0;
  std::size_t skipped = 0;

  std::vector<DynamicBitset> running;
  std::vector<std::size_t> union_sizes(m, 0);
  std::vector<std::uint32_t> max_priv(m, 0);

  for (std::size_t end = 1; end <= n; ++end) {
    running.clear();
    bool stopped = false;
    for (std::size_t j = 0; j < m; ++j) {
      running.emplace_back(trace.task(j).local_universe());
      union_sizes[j] = 0;
      max_priv[j] = 0;
    }
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
      const Cost candidate =
          cost_add(cost_add(best[start], hyper_term),
                   cost_mul(reconfig_term, static_cast<Cost>(end - start)));
      if (candidate < best[end]) {
        best[end] = candidate;
        parent[end] = start;
      }
      observe_exit(best[start],
                   cost_mul(reconfig_term, static_cast<Cost>(end - start)),
                   best[end], start, stopped, skipped);
    }
  }

  if (skippable != nullptr) *skippable = skipped;
  MultiTaskSchedule schedule;
  schedule.tasks.assign(m, Partition::from_starts(starts_from(parent), n));
  if (machine.has_global_resources()) {
    schedule.global_boundaries.push_back(0);
  }
  return make_solution(instance, std::move(schedule));
}

}  // namespace hyperrec::testutil
