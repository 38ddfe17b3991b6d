// Shared interval-query precomputation over context-requirement traces.
//
// Every MT-Switch solver and evaluator asks the same three questions about a
// task trace, millions of times, always over step intervals [lo, hi):
//
//   * what is the union of the local requirements?        (hypercontext)
//   * how many switches does that union contain?          (|h^loc|)
//   * what is the maximum private demand?                 (|h^priv|)
//
// TaskTrace::local_union_naive answers them by rescanning the interval —
// O(range·words) per query, called from O(n²) interval loops.  TaskTraceStats
// precomputes once per instance so every later query is cheap:
//
//   * a sparse table of word-level interval unions (binary lifting): any
//     local_union(lo, hi) is the OR of two precomputed rows — O(words) =
//     O(universe/64) per query, and local_union_count folds the popcount
//     into the same two-row pass without materialising a bitset;
//   * a sparse table of prefix maxima of the private demand — O(1) queries;
//   * cached step/universe metadata.
//
// Those two tables are all the switch-model cost reads of an interval: the
// size of its local-requirement union and its peak private demand (§2,
// §4.2).  Nothing else is built, so construction is O(n·log n·words).
//
// MultiTaskTraceStats bundles one TaskTraceStats per task and, for
// synchronized traces, the per-step sums of private demands across tasks
// (with an O(1) range-max view) — a fast necessary condition for the §3
// private-global feasibility check.
//
// Both classes are immutable views: they hold a pointer to the trace they
// were built from and must not outlive it.  SolveInstance (model/instance.hpp)
// owns trace and stats together and is the unit the solver stack shares.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "model/trace.hpp"
#include "support/bitset.hpp"
#include "support/bitset_kernels.hpp"

namespace hyperrec {

/// Precomputed interval-query structures for one task's trace.
class TaskTraceStats {
 public:
  /// Empty view; every accessor other than assignment is invalid.
  TaskTraceStats() = default;

  /// Builds both tables in O(n·log n·words).
  explicit TaskTraceStats(const TaskTrace& trace);

  [[nodiscard]] const TaskTrace& trace() const noexcept { return *trace_; }
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::size_t universe() const noexcept { return universe_; }

  /// Union of local requirements over [lo, hi); O(universe/64).
  [[nodiscard]] DynamicBitset local_union(std::size_t lo,
                                          std::size_t hi) const;

  /// |local_union(lo, hi)| without materialising the union; O(universe/64).
  /// Inline (header-defined): the O(n²) interval DPs call this from other
  /// translation units, and the two-row kernel popcount is cheaper than the
  /// call that would otherwise wrap it.
  [[nodiscard]] std::size_t local_union_count(std::size_t lo,
                                              std::size_t hi) const {
    check_range(lo, hi);
    if (lo == hi || words_ == 0) return 0;
    const RowPair rows = union_rows_for(lo, hi);
    return kernels::or_popcount(rows.a, rows.b, words_);
  }

  /// |base ∪ local_union(lo, hi)| in one fused pass — no materialisation.
  /// `base` must share the task's universe.  Greedy's window scoring uses
  /// this to price extending the current hypercontext.
  [[nodiscard]] std::size_t local_union_count_with(const DynamicBitset& base,
                                                   std::size_t lo,
                                                   std::size_t hi) const {
    check_range(lo, hi);
    HYPERREC_ENSURE(base.size() == universe_,
                    "base universe differs from the task universe");
    if (lo == hi || words_ == 0) return base.count();
    const RowPair rows = union_rows_for(lo, hi);
    return kernels::or3_popcount(rows.a, rows.b, base.words().data(), words_);
  }

  /// Maximum private demand over [lo, hi); 0 for an empty range; O(1).
  [[nodiscard]] std::uint32_t max_private_demand(std::size_t lo,
                                                 std::size_t hi) const {
    check_range(lo, hi);
    if (lo == hi) return 0;
    const std::size_t k = log2_[hi - lo];
    const std::size_t span = std::size_t{1} << k;
    return std::max(priv_rows_[row(k, lo)], priv_rows_[row(k, hi - span)]);
  }

 private:
  void check_range(std::size_t lo, std::size_t hi) const {
    HYPERREC_ENSURE(lo <= hi && hi <= steps_, "stats query range out of bounds");
  }

  const TaskTrace* trace_ = nullptr;
  std::size_t steps_ = 0;
  std::size_t universe_ = 0;
  std::size_t words_ = 0;

  /// Row index of sparse-table entry (level k, start i); level k has
  /// (steps - 2^k + 1) rows covering steps [i, i + 2^k).
  [[nodiscard]] std::size_t row(std::size_t k, std::size_t i) const noexcept {
    return level_row_start_[k] + i;
  }

  /// The two overlapping table rows whose OR covers the non-empty range
  /// [lo, hi) — the one copy of the seam-prone span arithmetic shared by
  /// every union query.
  struct RowPair {
    const DynamicBitset::Word* a;
    const DynamicBitset::Word* b;
  };
  [[nodiscard]] RowPair union_rows_for(std::size_t lo, std::size_t hi) const {
    const std::size_t k = log2_[hi - lo];
    const std::size_t span = std::size_t{1} << k;
    return {union_rows_.data() + row(k, lo) * words_,
            union_rows_.data() + row(k, hi - span) * words_};
  }

  /// floor(log2(len)) for len in [1, steps].
  std::vector<std::uint8_t> log2_;
  /// Per-level row offsets into the flat arenas below (all levels share one
  /// allocation each — stats are built once per instance but on the batch
  /// engine's per-job path, so construction stays allocation-lean).
  std::vector<std::size_t> level_row_start_;
  /// Interval-union rows, `words_` words each, levels concatenated.
  std::vector<DynamicBitset::Word> union_rows_;
  /// priv_rows_[row(k, i)] = max private demand over steps [i, i + 2^k).
  std::vector<std::uint32_t> priv_rows_;
};

namespace detail {

/// The body of every stats view's block_quota_sum.
template <typename Stats>
[[nodiscard]] std::uint64_t block_quota_sum(const Stats& stats, std::size_t lo,
                                            std::size_t hi) {
  std::uint64_t sum = 0;
  for (std::size_t j = 0; j < stats.task_count(); ++j) {
    sum += stats.task(j).max_private_demand(lo, hi);
  }
  return sum;
}

}  // namespace detail

/// Per-task stats for all tasks of a multi-task trace, plus cross-task
/// per-step demand sums on synchronized traces.
class MultiTaskTraceStats {
 public:
  MultiTaskTraceStats() = default;
  explicit MultiTaskTraceStats(const MultiTaskTrace& trace);

  [[nodiscard]] const MultiTaskTrace& trace() const noexcept {
    return *trace_;
  }
  [[nodiscard]] std::size_t task_count() const noexcept {
    return tasks_.size();
  }
  [[nodiscard]] const TaskTraceStats& task(std::size_t j) const {
    HYPERREC_ENSURE(j < tasks_.size(), "task index out of range");
    return tasks_[j];
  }
  [[nodiscard]] bool synchronized() const noexcept { return synchronized_; }

  /// Σ_j private demand of task j at step i (synchronized traces only).
  [[nodiscard]] std::uint64_t step_demand_sum(std::size_t i) const;

  /// max over steps [lo, hi) of step_demand_sum — an O(1) *lower bound* on
  /// the §3 per-block quota sum Σ_j max_j (a block whose max step sum
  /// already exceeds the pool is infeasible without any per-task queries).
  [[nodiscard]] std::uint64_t max_step_demand_sum(std::size_t lo,
                                                  std::size_t hi) const;

  /// §3 quota rule: a global block over [lo, hi) gives each task its peak
  /// private demand there as quota, and fits iff the quotas' sum ≤ g.
  [[nodiscard]] std::uint64_t block_quota_sum(std::size_t lo,
                                              std::size_t hi) const {
    return detail::block_quota_sum(*this, lo, hi);
  }

 private:
  const MultiTaskTrace* trace_ = nullptr;
  std::vector<TaskTraceStats> tasks_;
  bool synchronized_ = true;
  std::vector<std::uint8_t> log2_;
  /// demand_levels_[k][i] = max over steps [i, i + 2^k) of the per-step sums.
  std::vector<std::vector<std::uint64_t>> demand_levels_;
  std::vector<std::uint64_t> demand_sums_;
};

}  // namespace hyperrec
