#include "core/interval_dp.hpp"

#include "support/bitset_kernels.hpp"
#include "support/cost_math.hpp"

namespace hyperrec {

namespace {

/// The interval DP over steps [lo, hi) of `trace`, shared by
/// solve_single_task_switch and single_task_switch_cost.  On return best[k]
/// is the optimal cost of steps [lo, lo + k) and parent[k] the start
/// (relative to lo) of its last interval.  The scans over starts stop at
/// the exact early exit proven in the header.
void interval_dp(const TaskTrace& trace, std::size_t lo, std::size_t hi,
                 Cost hyper_init, std::vector<Cost>& best,
                 std::vector<std::size_t>& parent) {
  HYPERREC_ENSURE(hi <= trace.size(), "step range beyond the trace");
  HYPERREC_ENSURE(lo < hi, "empty trace");
  const std::size_t n = hi - lo;
  best.assign(n + 1, kCostInfinity);
  parent.assign(n + 1, 0);
  best[0] = 0;
  // The early exit is proven for H ≥ 0 only (see the header).
  const bool prune = hyper_init >= 0;

  if (trace.local_universe() <= DynamicBitset::kWordBits) {
    // Small-universe fast path: every local requirement is one word, so the
    // inner loop runs on hoisted raw words — no bounds checks, no storage
    // indirection, and the union merge is two ALU ops plus a popcount.
    // Most workload families live here (universe 6..64).
    using Word = DynamicBitset::Word;
    std::vector<Word> locals(n, 0);
    std::vector<std::uint32_t> demands(n);
    for (std::size_t i = 0; i < n; ++i) {
      const ContextRequirement& req = trace.at(lo + i);
      if (!req.local.words().empty()) locals[i] = req.local.words().front();
      demands[i] = req.private_demand;
    }
    // lint: hot-loop begin
    for (std::size_t end = 1; end <= n; ++end) {
      Word running = 0;
      std::size_t union_size = 0;
      std::uint32_t max_priv = 0;
      // Extend the candidate interval [start, end) leftwards.
      for (std::size_t start = end; start-- > 0;) {
        const Word local = locals[start];
        union_size += kernels::popcount_word(local & ~running);
        running |= local;
        max_priv = std::max(max_priv, demands[start]);
        const Cost per_step =
            static_cast<Cost>(union_size) + static_cast<Cost>(max_priv);
        // Saturating arithmetic: adversarial hyper_init/private_demand must
        // clamp at the sentinel instead of wrapping Cost (UB).
        const Cost tail = cost_mul(per_step, static_cast<Cost>(end - start));
        const Cost candidate =
            cost_add(cost_add(best[start], hyper_init), tail);
        if (candidate < best[end]) {
          best[end] = candidate;
          parent[end] = start;
        }
        if (prune && cost_add(best[start], tail) >= best[end]) break;
      }
    }
    // lint: hot-loop end
    return;
  }

  // General path: the inner loop keeps its incrementally merged running
  // union (amortised O(words) per extension beats a table query per pair).
  DynamicBitset running(trace.local_universe());
  // lint: hot-loop begin
  for (std::size_t end = 1; end <= n; ++end) {
    running.reset_all();
    std::size_t union_size = 0;
    std::uint32_t max_priv = 0;
    // Extend the candidate interval [start, end) leftwards.
    for (std::size_t start = end; start-- > 0;) {
      const ContextRequirement& req = trace.at(lo + start);
      union_size += running.merge_counting(req.local);
      max_priv = std::max(max_priv, req.private_demand);
      const Cost per_step =
          static_cast<Cost>(union_size) + static_cast<Cost>(max_priv);
      // Saturating arithmetic (see the fast path above).
      const Cost tail = cost_mul(per_step, static_cast<Cost>(end - start));
      const Cost candidate = cost_add(cost_add(best[start], hyper_init), tail);
      if (candidate < best[end]) {
        best[end] = candidate;
        parent[end] = start;
      }
      if (prune && cost_add(best[start], tail) >= best[end]) break;
    }
  }
  // lint: hot-loop end
}

}  // namespace

SingleTaskSolution solve_single_task_switch(const TaskTrace& trace,
                                            Cost hyper_init) {
  const std::size_t n = trace.size();
  std::vector<Cost> best;
  std::vector<std::size_t> parent;
  interval_dp(trace, 0, n, hyper_init, best, parent);

  std::vector<std::size_t> starts;
  for (std::size_t cursor = n; cursor != 0; cursor = parent[cursor]) {
    starts.push_back(parent[cursor]);
  }
  std::reverse(starts.begin(), starts.end());

  SingleTaskSolution solution{Partition::from_starts(starts, n), best[n], {}};
  // One pass over the steps: every step lies in exactly one interval.
  solution.hypercontexts.reserve(solution.partition.interval_count());
  for (std::size_t k = 0; k < solution.partition.interval_count(); ++k) {
    const auto [lo, hi] = solution.partition.interval_bounds(k);
    DynamicBitset hypercontext(trace.local_universe());
    for (std::size_t i = lo; i < hi; ++i) hypercontext |= trace.at(i).local;
    solution.hypercontexts.push_back(std::move(hypercontext));
  }
  return solution;
}

Cost single_task_switch_cost(const TaskTrace& trace, std::size_t lo,
                             std::size_t hi, Cost hyper_init) {
  std::vector<Cost> best;
  std::vector<std::size_t> parent;
  interval_dp(trace, lo, hi, hyper_init, best, parent);
  return best.back();
}

SingleTaskSolution solve_single_task_switch_changeover(const TaskTrace& trace,
                                                       Cost hyper_init) {
  const std::size_t n = trace.size();
  HYPERREC_ENSURE(n > 0, "empty trace");
  HYPERREC_ENSURE(n <= 2048,
                  "changeover DP stores O(n²) unions; trace too long");

  // unions[i*(n+1)+j] = U(i, j) for i < j.
  std::vector<DynamicBitset> unions(
      (n + 1) * (n + 1), DynamicBitset(trace.local_universe()));
  std::vector<std::uint32_t> privs((n + 1) * (n + 1), 0);
  for (std::size_t i = 0; i < n; ++i) {
    DynamicBitset running(trace.local_universe());
    std::uint32_t max_priv = 0;
    for (std::size_t j = i + 1; j <= n; ++j) {
      running |= trace.at(j - 1).local;
      max_priv = std::max(max_priv, trace.at(j - 1).private_demand);
      unions[i * (n + 1) + j] = running;
      privs[i * (n + 1) + j] = max_priv;
    }
  }
  auto interval_base = [&](std::size_t i, std::size_t j) {
    const Cost per_step = static_cast<Cost>(unions[i * (n + 1) + j].count()) +
                          static_cast<Cost>(privs[i * (n + 1) + j]);
    return cost_add(hyper_init, cost_mul(per_step, static_cast<Cost>(j - i)));
  };

  // state[i][j]: min cost of steps [0, j) whose last interval is [i, j).
  std::vector<Cost> state(n * (n + 1), kCostInfinity);
  std::vector<std::size_t> parent(n * (n + 1), 0);
  auto at = [n](std::size_t i, std::size_t j) { return i * (n + 1) + j; };

  for (std::size_t j = 1; j <= n; ++j) {
    state[at(0, j)] = cost_add(interval_base(0, j),
                               static_cast<Cost>(unions[at(0, j)].count()));
  }
  for (std::size_t j = 1; j < n; ++j) {      // previous interval end
    for (std::size_t i = 0; i < j; ++i) {    // previous interval start
      if (state[at(i, j)] >= kCostInfinity) continue;
      for (std::size_t k = j + 1; k <= n; ++k) {  // new interval end
        const Cost delta = static_cast<Cost>(
            unions[at(j, k)].symmetric_difference_count(unions[at(i, j)]));
        const Cost candidate =
            cost_add(state[at(i, j)], cost_add(interval_base(j, k), delta));
        if (candidate < state[at(j, k)]) {
          state[at(j, k)] = candidate;
          parent[at(j, k)] = i;
        }
      }
    }
  }

  Cost total = kCostInfinity;
  std::size_t best_i = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (state[at(i, n)] < total) {
      total = state[at(i, n)];
      best_i = i;
    }
  }

  std::vector<std::size_t> starts;
  std::size_t i = best_i;
  std::size_t j = n;
  for (;;) {
    starts.push_back(i);
    if (i == 0) break;
    const std::size_t prev_i = parent[at(i, j)];
    j = i;
    i = prev_i;
  }
  std::reverse(starts.begin(), starts.end());

  SingleTaskSolution solution{Partition::from_starts(starts, n), total, {}};
  for (std::size_t k = 0; k < solution.partition.interval_count(); ++k) {
    const auto [lo, hi] = solution.partition.interval_bounds(k);
    // The DP already materialised every interval union; reuse its table.
    solution.hypercontexts.push_back(unions[lo * (n + 1) + hi]);
  }
  return solution;
}

}  // namespace hyperrec
