#include "streaming/stream_stats.hpp"

#include <algorithm>

#include "support/bitset_kernels.hpp"
#include "support/ensure.hpp"

namespace hyperrec::streaming {

// --- TaskStreamStats ------------------------------------------------------

TaskStreamStats::TaskStreamStats(std::size_t universe)
    : universe_(universe),
      words_((universe + DynamicBitset::kWordBits - 1) /
             DynamicBitset::kWordBits) {
  log2_.push_back(0);  // index 0 unused, mirrors trace_stats' build_log2
}

TaskStreamStats::TaskStreamStats(const TaskTrace& trace)
    : TaskStreamStats(trace.local_universe()) {
  const std::size_t n = trace.size();
  if (n == 0) return;

  // log2 table in one pass.
  log2_.reserve(n + 1);
  std::uint8_t k = 0;
  for (std::size_t len = 1; len <= n; ++len) {
    if ((std::size_t{2} << k) <= len) ++k;
    log2_.push_back(k);
  }
  steps_ = n;

  // Sparse-table levels, each built from the previous in one pass.
  const std::size_t levels = std::size_t{log2_[n]} + 1;
  union_levels_.resize(levels);
  priv_levels_.resize(levels);
  union_levels_[0].assign(n * words_, 0);
  priv_levels_[0].resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ContextRequirement& req = trace.at(i);
    std::copy(req.local.words().begin(), req.local.words().end(),
              union_levels_[0].begin() + static_cast<std::ptrdiff_t>(i * words_));
    priv_levels_[0][i] = req.private_demand;
  }
  for (std::size_t level = 1; level < levels; ++level) {
    const std::size_t half = std::size_t{1} << (level - 1);
    const std::size_t rows = n - (std::size_t{1} << level) + 1;
    union_levels_[level].assign(rows * words_, 0);
    priv_levels_[level].resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      const DynamicBitset::Word* a =
          union_levels_[level - 1].data() + i * words_;
      const DynamicBitset::Word* b =
          union_levels_[level - 1].data() + (i + half) * words_;
      DynamicBitset::Word* out = union_levels_[level].data() + i * words_;
      kernels::or_words(out, a, b, words_);
      priv_levels_[level][i] = std::max(priv_levels_[level - 1][i],
                                        priv_levels_[level - 1][i + half]);
    }
  }
}

void TaskStreamStats::append(const ContextRequirement& req) {
  HYPERREC_ENSURE(req.local.size() == universe_,
                  "requirement universe differs from stream universe");
  const std::size_t n = steps_;  // new step index; new size is n + 1
  const std::size_t size = n + 1;

  // log2_[size] from log2_[size - 1].
  if (size == 1) {
    log2_.push_back(0);
  } else {
    const std::uint8_t prev = log2_[size - 1];
    log2_.push_back((std::size_t{2} << prev) <= size
                        ? static_cast<std::uint8_t>(prev + 1)
                        : prev);
  }

  // One new row per level: level k gains row size − 2^k covering
  // [size − 2^k, size), OR/max of the two level-(k−1) rows it straddles.
  // Level k−1 already holds its row for this append (ascending k), and its
  // last row — index size − 2^(k−1) — is exactly the second source.
  const std::size_t levels = std::size_t{log2_[size]} + 1;
  if (union_levels_.size() < levels) {
    union_levels_.resize(levels);
    priv_levels_.resize(levels);
  }
  union_levels_[0].insert(union_levels_[0].end(), req.local.words().begin(),
                          req.local.words().end());
  priv_levels_[0].push_back(req.private_demand);
  for (std::size_t k = 1; k < levels; ++k) {
    const std::size_t half = std::size_t{1} << (k - 1);
    const std::size_t i = size - (std::size_t{1} << k);
    const std::size_t old_words = union_levels_[k].size();
    union_levels_[k].resize(old_words + words_);
    const DynamicBitset::Word* a = union_levels_[k - 1].data() + i * words_;
    const DynamicBitset::Word* b =
        union_levels_[k - 1].data() + (i + half) * words_;
    DynamicBitset::Word* out = union_levels_[k].data() + old_words;
    kernels::or_words(out, a, b, words_);
    priv_levels_[k].push_back(
        std::max(priv_levels_[k - 1][i], priv_levels_[k - 1][i + half]));
  }
  steps_ = size;
}

TaskStreamStats::RowPair TaskStreamStats::union_rows_for(std::size_t lo,
                                                         std::size_t hi) const {
  const std::size_t k = log2_[hi - lo];
  const std::size_t span = std::size_t{1} << k;
  return {union_levels_[k].data() + lo * words_,
          union_levels_[k].data() + (hi - span) * words_};
}

DynamicBitset TaskStreamStats::local_union(std::size_t lo,
                                           std::size_t hi) const {
  check_range(lo, hi);
  if (lo == hi || words_ == 0) return DynamicBitset(universe_);
  const RowPair rows = union_rows_for(lo, hi);
  return DynamicBitset::from_or_words(universe_, rows.a, rows.b, words_);
}

std::size_t TaskStreamStats::local_union_count(std::size_t lo,
                                               std::size_t hi) const {
  check_range(lo, hi);
  if (lo == hi || words_ == 0) return 0;
  const RowPair rows = union_rows_for(lo, hi);
  return kernels::or_popcount(rows.a, rows.b, words_);
}

std::uint32_t TaskStreamStats::max_private_demand(std::size_t lo,
                                                  std::size_t hi) const {
  check_range(lo, hi);
  if (lo == hi) return 0;
  const std::size_t k = log2_[hi - lo];
  const std::size_t span = std::size_t{1} << k;
  return std::max(priv_levels_[k][lo], priv_levels_[k][hi - span]);
}

void TaskStreamStats::assert_consistent_with(const TaskTraceStats& full) const {
  HYPERREC_ENSURE(steps_ == full.steps(),
                  "stream/rebuild step count divergence");
  HYPERREC_ENSURE(universe_ == full.universe(),
                  "stream/rebuild universe divergence");

  // Power-of-two ranges read exactly one sparse-table row on each side, so
  // this loop compares every row of every level bit-identically.
  for (std::size_t k = 0; (std::size_t{1} << k) <= steps_; ++k) {
    const std::size_t span = std::size_t{1} << k;
    for (std::size_t i = 0; i + span <= steps_; ++i) {
      HYPERREC_ENSURE(local_union(i, i + span) == full.local_union(i, i + span),
                      "stream/rebuild union row divergence");
      HYPERREC_ENSURE(max_private_demand(i, i + span) ==
                          full.max_private_demand(i, i + span),
                      "stream/rebuild private-demand row divergence");
    }
  }
}

// --- TraceBuilderStats ----------------------------------------------------

TraceBuilderStats::TraceBuilderStats(const std::vector<std::size_t>& universes) {
  HYPERREC_ENSURE(!universes.empty(), "trace builder needs at least one task");
  log2_.push_back(0);
  for (const std::size_t universe : universes) {
    trace_.add_task(TaskTrace(universe));
    tasks_.emplace_back(universe);
  }
}

TraceBuilderStats::TraceBuilderStats(MultiTaskTrace trace)
    : trace_(std::move(trace)) {
  HYPERREC_ENSURE(trace_.task_count() > 0,
                  "trace builder needs at least one task");
  HYPERREC_ENSURE(trace_.synchronized(),
                  "trace builder requires a synchronized trace");
  steps_ = trace_.task(0).size();
  tasks_.reserve(trace_.task_count());
  for (std::size_t j = 0; j < trace_.task_count(); ++j) {
    tasks_.emplace_back(trace_.task(j));
  }

  log2_.assign(1, 0);
  std::uint8_t k = 0;
  for (std::size_t len = 1; len <= steps_; ++len) {
    if ((std::size_t{2} << k) <= len) ++k;
    log2_.push_back(k);
  }
  demand_sums_.assign(steps_, 0);
  for (std::size_t j = 0; j < trace_.task_count(); ++j) {
    for (std::size_t i = 0; i < steps_; ++i) {
      demand_sums_[i] += trace_.task(j).at(i).private_demand;
    }
  }
  if (steps_ == 0) return;
  const std::size_t levels = std::size_t{log2_[steps_]} + 1;
  demand_levels_.resize(levels);
  demand_levels_[0] = demand_sums_;
  for (std::size_t level = 1; level < levels; ++level) {
    const std::size_t half = std::size_t{1} << (level - 1);
    const std::size_t rows = steps_ - (std::size_t{1} << level) + 1;
    demand_levels_[level].resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      demand_levels_[level][i] = std::max(demand_levels_[level - 1][i],
                                          demand_levels_[level - 1][i + half]);
    }
  }
}

void TraceBuilderStats::ingest_step_views(
    const std::vector<ContextRequirement>& step) {
  // Validate every requirement before mutating ANY view: a mismatch
  // surfacing after task 0 appended would leave the per-task tables shifted
  // against each other with no rollback — silently wrong stats for a caller
  // that catches the exception and keeps going.
  for (std::size_t j = 0; j < tasks_.size(); ++j) {
    HYPERREC_ENSURE(step[j].local.size() == tasks_[j].universe(),
                    "requirement universe differs from its task's universe");
  }
  std::uint64_t sum = 0;
  for (std::size_t j = 0; j < tasks_.size(); ++j) {
    tasks_[j].append(step[j]);
    sum += step[j].private_demand;
  }

  const std::size_t size = steps_ + 1;
  if (size == 1) {
    log2_.push_back(0);
  } else {
    const std::uint8_t prev = log2_[size - 1];
    log2_.push_back((std::size_t{2} << prev) <= size
                        ? static_cast<std::uint8_t>(prev + 1)
                        : prev);
  }
  demand_sums_.push_back(sum);
  const std::size_t levels = std::size_t{log2_[size]} + 1;
  if (demand_levels_.size() < levels) demand_levels_.resize(levels);
  demand_levels_[0].push_back(sum);
  for (std::size_t k = 1; k < levels; ++k) {
    const std::size_t half = std::size_t{1} << (k - 1);
    const std::size_t i = size - (std::size_t{1} << k);
    demand_levels_[k].push_back(
        std::max(demand_levels_[k - 1][i], demand_levels_[k - 1][i + half]));
  }
  steps_ = size;
}

void TraceBuilderStats::append_step(std::vector<ContextRequirement> step) {
  HYPERREC_ENSURE(step.size() == tasks_.size(),
                  "append_step needs exactly one requirement per task");
  ingest_step_views(step);
  trace_.append_step(std::move(step));
}

std::uint64_t TraceBuilderStats::step_demand_sum(std::size_t i) const {
  HYPERREC_ENSURE(i < demand_sums_.size(), "step out of range");
  return demand_sums_[i];
}

std::uint64_t TraceBuilderStats::max_step_demand_sum(std::size_t lo,
                                                     std::size_t hi) const {
  HYPERREC_ENSURE(lo <= hi && hi <= demand_sums_.size(),
                  "stats query range out of bounds");
  if (lo == hi) return 0;
  const std::size_t k = log2_[hi - lo];
  const std::size_t span = std::size_t{1} << k;
  return std::max(demand_levels_[k][lo], demand_levels_[k][hi - span]);
}

void TraceBuilderStats::assert_consistent_with_rebuild() const {
  const MultiTaskTraceStats full(trace_);
  HYPERREC_ENSURE(full.task_count() == tasks_.size(),
                  "stream/rebuild task count divergence");
  for (std::size_t j = 0; j < tasks_.size(); ++j) {
    tasks_[j].assert_consistent_with(full.task(j));
  }
  for (std::size_t i = 0; i < steps_; ++i) {
    HYPERREC_ENSURE(step_demand_sum(i) == full.step_demand_sum(i),
                    "stream/rebuild demand sum divergence");
  }
  for (std::size_t k = 0; (std::size_t{1} << k) <= steps_; ++k) {
    const std::size_t span = std::size_t{1} << k;
    for (std::size_t i = 0; i + span <= steps_; ++i) {
      HYPERREC_ENSURE(max_step_demand_sum(i, i + span) ==
                          full.max_step_demand_sum(i, i + span),
                      "stream/rebuild demand range-max divergence");
    }
  }
}

}  // namespace hyperrec::streaming
