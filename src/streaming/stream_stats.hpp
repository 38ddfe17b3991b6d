// Incremental interval-query statistics for traces that grow step-by-step.
//
// TaskTraceStats (model/trace_stats.hpp) precomputes its sparse tables once
// per instance — the right trade-off for offline solving, but a full rebuild
// per appended step costs O(n·log n·words) and live streams append
// thousands of steps.  The classes here maintain the *same two tables*
// (interval unions and O(1) private-demand range maxima) under append:
//
//   * TaskStreamStats — one task.  Appending step n adds exactly one row to
//     each sparse-table level (the row covering [n+1−2^k, n+1), computed
//     from two existing level-(k−1) rows), so an append costs
//     O(log n·words) — amortized O(|X|/64) per step per task for the union
//     work, against the O(n·log n·|X|/64) of a rebuild.  Levels are stored
//     as separately growable arenas (level-major) instead of
//     TaskTraceStats' single flat arena precisely so rows can be appended
//     in place.
//
//   * TraceBuilderStats — a growing synchronized MultiTaskTrace plus one
//     TaskStreamStats per task and the cross-task per-step demand sums with
//     their range-max table (the O(1) feasibility pre-check the streaming
//     triggers poll).  Owns the trace: `append_step` feeds both the trace
//     and every view.  It answers every query the §4.2 evaluator makes, so
//     the streaming engine prices its spliced schedules on it directly
//     (model/cost_switch.hpp, detail::evaluate_fully_sync).
//
// Consistency is testable, not assumed: assert_consistent_with() compares a
// stream-built view against a freshly built TaskTraceStats *bit-identically*
// — every sparse-table row, via the power-of-two ranges that read a single
// row — and the property suite runs it at every appended step across
// word-seam universes.
#pragma once

#include <cstdint>
#include <vector>

#include "model/trace.hpp"
#include "model/trace_stats.hpp"
#include "support/bitset.hpp"

namespace hyperrec::streaming {

/// Incrementally maintained interval-query tables for one growing task
/// trace.  Query API mirrors TaskTraceStats; results are bit-identical to a
/// from-scratch build over the same steps.
class TaskStreamStats {
 public:
  /// Empty stream over `universe` local switches.
  explicit TaskStreamStats(std::size_t universe);

  /// Bulk build over an existing trace: level-by-level table construction
  /// (one OR pass per level) — better constants than appending every step,
  /// with bit-identical tables.
  explicit TaskStreamStats(const TaskTrace& trace);

  /// Appends one step; O(log n·words).
  void append(const ContextRequirement& req);

  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] std::size_t universe() const noexcept { return universe_; }

  /// Union of local requirements over [lo, hi); O(universe/64).
  [[nodiscard]] DynamicBitset local_union(std::size_t lo,
                                          std::size_t hi) const;

  /// |local_union(lo, hi)| without materialising the union.
  [[nodiscard]] std::size_t local_union_count(std::size_t lo,
                                              std::size_t hi) const;

  /// Maximum private demand over [lo, hi); 0 for an empty range; O(1).
  [[nodiscard]] std::uint32_t max_private_demand(std::size_t lo,
                                                 std::size_t hi) const;

  /// Debug hook: compares this stream-built view bit-identically against a
  /// freshly built TaskTraceStats over the same trace — every sparse-table
  /// row of both tables.  Throws PreconditionError on the first divergence.
  void assert_consistent_with(const TaskTraceStats& full) const;

 private:
  void check_range(std::size_t lo, std::size_t hi) const {
    HYPERREC_ENSURE(lo <= hi && hi <= steps_,
                    "stream stats query range out of bounds");
  }

  struct RowPair {
    const DynamicBitset::Word* a;
    const DynamicBitset::Word* b;
  };
  [[nodiscard]] RowPair union_rows_for(std::size_t lo, std::size_t hi) const;

  std::size_t universe_ = 0;
  std::size_t words_ = 0;
  std::size_t steps_ = 0;

  /// log2_[len] = floor(log2(len)) for len in [1, steps]; grown per append.
  std::vector<std::uint8_t> log2_;
  /// union_levels_[k] holds rows of `words_` words each; row i covers steps
  /// [i, i + 2^k).  Each level is its own growable arena.
  std::vector<std::vector<DynamicBitset::Word>> union_levels_;
  /// priv_levels_[k][i] = max private demand over steps [i, i + 2^k).
  std::vector<std::vector<std::uint32_t>> priv_levels_;
};

/// A growing synchronized multi-task trace bundled with incrementally
/// maintained per-task stats and cross-task demand sums.  The streaming
/// counterpart of SolveInstance's eager MultiTaskTraceStats.
class TraceBuilderStats {
 public:
  /// Empty trace with one task per universe entry (at least one task).
  explicit TraceBuilderStats(const std::vector<std::size_t>& universes);

  /// Adopts an existing synchronized trace and bulk-builds all views over
  /// it.
  explicit TraceBuilderStats(MultiTaskTrace trace);

  /// Appends one synchronized step (requirement j goes to task j).
  void append_step(std::vector<ContextRequirement> step);

  [[nodiscard]] const MultiTaskTrace& trace() const noexcept { return trace_; }
  [[nodiscard]] std::size_t task_count() const noexcept {
    return tasks_.size();
  }
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }
  [[nodiscard]] const TaskStreamStats& task(std::size_t j) const {
    HYPERREC_ENSURE(j < tasks_.size(), "task index out of range");
    return tasks_[j];
  }

  /// Σ_j private demand of task j at step i; O(1).
  [[nodiscard]] std::uint64_t step_demand_sum(std::size_t i) const;

  /// max over steps [lo, hi) of step_demand_sum; O(1).  The streaming
  /// engine's demand-spike trigger compares a fresh step against this over
  /// the last solved window without touching any per-task table.
  [[nodiscard]] std::uint64_t max_step_demand_sum(std::size_t lo,
                                                  std::size_t hi) const;

  /// MultiTaskTraceStats::block_quota_sum over the growing trace.
  [[nodiscard]] std::uint64_t block_quota_sum(std::size_t lo,
                                              std::size_t hi) const {
    return hyperrec::detail::block_quota_sum(*this, lo, hi);
  }

  /// Debug hook: rebuilds MultiTaskTraceStats from the current trace and
  /// asserts every per-task view and every demand sum matches
  /// bit-identically.  Throws PreconditionError on divergence.
  void assert_consistent_with_rebuild() const;

 private:
  void ingest_step_views(const std::vector<ContextRequirement>& step);

  MultiTaskTrace trace_;
  std::vector<TaskStreamStats> tasks_;
  std::size_t steps_ = 0;

  std::vector<std::uint8_t> log2_;
  std::vector<std::uint64_t> demand_sums_;
  /// demand_levels_[k][i] = max over steps [i, i + 2^k) of the per-step sums.
  std::vector<std::vector<std::uint64_t>> demand_levels_;
};

}  // namespace hyperrec::streaming
