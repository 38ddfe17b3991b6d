#include "core/interval_dp.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "support/bitset_kernels.hpp"
#include "support/cost_math.hpp"

namespace hyperrec {

namespace detail {

namespace {

// Rent-or-buy prices, in units of one merged word: merging a task's step
// costs its words plus kStartPrice, and catching it up costs its words plus
// kBitPrice per set bit (each bit is a dependent load and store).
constexpr std::size_t kStartPrice = 2;
constexpr std::size_t kBitPrice = 3;

}  // namespace

UnionScan::UnionScan(std::span<const TaskTrace* const> tasks, std::size_t lo,
                     std::size_t hi) {
  HYPERREC_ENSURE(!tasks.empty(), "interval DP needs a task");
  std::size_t words = 0;
  std::size_t universe = 0;
  lanes_.reserve(tasks.size());
  for (const TaskTrace* task : tasks) {
    HYPERREC_ENSURE(lo <= hi && hi <= task->size(),
                    "step range beyond the trace");
    Lane lane;
    lane.steps = task->requirements().subspan(lo, hi - lo);
    lane.universe = task->local_universe();
    lane.words = (lane.universe + DynamicBitset::kWordBits - 1) /
                 DynamicBitset::kWordBits;
    lane.running = words;
    lane.last = universe;
    words += lane.words;
    universe += lane.universe;
    lanes_.push_back(lane);
  }
  sizes_.assign(lanes_.size(), 0);
  running_.assign(words, 0);
  // The counters may never take more bytes than the range's own words.
  const std::size_t n = hi - lo;
  if (((n + 1) * lanes_.size() + universe) * sizeof(std::uint32_t) <=
      n * words * sizeof(Word)) {
    rent_per_start_ = words + kStartPrice * lanes_.size();
  } else {
    lag_ = std::numeric_limits<std::size_t>::max();
  }
}

bool UnionScan::buy(std::size_t rent) {
  // Price the lagging steps until they cost twice the rent (or all of them
  // are priced): a scan whose rent keeps pace with its lag then prices,
  // and calls here, only each time the rent doubles.
  for (; lag_to_ < end_ && lag_ <= 2 * rent; ++lag_to_) {
    for (const Lane& lane : lanes_) {
      lag_ += lane.words +
              kBitPrice * kernels::popcount(
                              lane.steps[lag_to_].local.words().data(),
                              lane.words);
    }
  }
  if (rent < lag_) return false;
  catch_up();
  return true;
}

void UnionScan::catch_up() {
  const std::size_t m = lanes_.size();
  if (counts_.empty()) {
    const std::size_t rows = lanes_.front().steps.size() + 1;
    std::size_t universe = 0;
    for (const Lane& lane : lanes_) {
      HYPERREC_ENSURE(
          lane.universe <= std::numeric_limits<std::uint32_t>::max(),
          "universe too large for 32-bit union counters");
      universe += lane.universe;
    }
    HYPERREC_ENSURE(rows * m <= std::numeric_limits<std::uint32_t>::max(),
                    "step range too long for 32-bit union counters");
    counts_.assign(rows * m, 0);
    last_.resize(universe);
    for (std::size_t j = 0; j < m; ++j) {
      std::fill_n(last_.begin() + static_cast<std::ptrdiff_t>(lanes_[j].last),
                  lanes_[j].universe, static_cast<std::uint32_t>(j));
    }
  }
  // lint: hot-loop begin
  for (std::size_t t = synced_; t < end_; ++t) {
    for (std::size_t j = 0; j < m; ++j) {
      const Lane& lane = lanes_[j];
      const Word* words = lane.steps[t].local.words().data();
      std::uint32_t* last = last_.data() + lane.last;
      const auto tag = static_cast<std::uint32_t>((t + 1) * m + j);
      std::uint32_t here = 0;
      for (std::size_t w = 0; w < lane.words; ++w) {
        for (Word bits = words[w]; bits != 0; bits &= bits - 1) {
          const std::size_t x =
              w * DynamicBitset::kWordBits +
              static_cast<std::size_t>(std::countr_zero(bits));
          --counts_[last[x]];
          last[x] = tag;
          ++here;
        }
      }
      counts_[tag] = here;
    }
  }
  // lint: hot-loop end
  synced_ = end_;
  lag_to_ = end_;
  lag_ = 0;
  ++catch_ups_;
}

std::vector<std::size_t> IntervalDp::starts() const {
  std::vector<std::size_t> out;
  for (std::size_t cursor = parent.size() - 1; cursor != 0;
       cursor = parent[cursor]) {
    out.push_back(parent[cursor]);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

namespace {

/// interval_dp's scans, with the task count fixed at compile time when
/// kLanes is not 0.
template <std::size_t kLanes>
void scan_ends(UnionScan& unions,
               std::span<const std::span<const ContextRequirement>> steps,
               Cost hyper, Cost public_size, UploadMode reconfig_upload,
               IntervalDp& dp) {
  const std::size_t m = kLanes != 0 ? kLanes : steps.size();
  const std::size_t n = dp.best.size() - 1;
  std::vector<Cost>& best = dp.best;
  std::vector<std::size_t>& parent = dp.parent;
  std::vector<std::uint32_t> max_priv(m, 0);
  // The early exit is proven for H ≥ 0 only (see the header).
  const bool prune = hyper >= 0;

  // lint: hot-loop begin
  for (std::size_t end = 1; end <= n; ++end) {
    // Extend the candidate interval [start, end) leftwards.
    unions.scan<kLanes>(end, [&](std::size_t start,
                                 std::span<const std::size_t> union_sizes) {
      Cost reconfig = public_size;
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint32_t demand = steps[j][start].private_demand;
        max_priv[j] =
            start + 1 == end ? demand : std::max(max_priv[j], demand);
        reconfig = combine(reconfig_upload, reconfig,
                           static_cast<Cost>(union_sizes[j]) +
                               static_cast<Cost>(max_priv[j]));
      }
      // Saturating arithmetic: adversarial hyper costs or private demands
      // clamp at the sentinel instead of wrapping Cost (UB); saturated
      // candidates never beat the sentinel, so parent[end] keeps the single
      // interval.
      const Cost tail = cost_mul(reconfig, static_cast<Cost>(end - start));
      const Cost candidate = cost_add(cost_add(best[start], hyper), tail);
      if (candidate < best[end]) {
        best[end] = candidate;
        parent[end] = start;
      }
      return !prune || cost_add(best[start], tail) < best[end];
    });
  }
  // lint: hot-loop end
}

}  // namespace

IntervalDp interval_dp(std::span<const TaskTrace* const> tasks,
                       std::size_t lo, std::size_t hi, Cost hyper,
                       Cost public_size, UploadMode reconfig_upload) {
  HYPERREC_ENSURE(lo < hi, "empty trace");
  UnionScan unions(tasks, lo, hi);
  const std::size_t n = hi - lo;
  std::vector<std::span<const ContextRequirement>> steps;
  steps.reserve(tasks.size());
  for (const TaskTrace* task : tasks) {
    steps.push_back(task->requirements().subspan(lo, n));
  }
  IntervalDp dp{std::vector<Cost>(n + 1, kCostInfinity),
                std::vector<std::size_t>(n + 1, 0)};
  dp.best[0] = 0;
  if (steps.size() == 1) {
    scan_ends<1>(unions, steps, hyper, public_size, reconfig_upload, dp);
  } else {
    scan_ends<0>(unions, steps, hyper, public_size, reconfig_upload, dp);
  }
  return dp;
}

}  // namespace detail

SingleTaskSolution solve_single_task_switch(const TaskTrace& trace,
                                            Cost hyper_init) {
  const std::size_t n = trace.size();
  const TaskTrace* const task = &trace;
  const detail::IntervalDp dp = detail::interval_dp(
      {&task, 1}, 0, n, hyper_init, 0, UploadMode::kTaskParallel);

  SingleTaskSolution solution{Partition::from_starts(dp.starts(), n),
                              dp.best[n], {}};
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
  const TaskTrace* const task = &trace;
  return detail::interval_dp({&task, 1}, lo, hi, hyper_init, 0,
                             UploadMode::kTaskParallel)
      .best.back();
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
