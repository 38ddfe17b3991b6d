#include "model/trace_stats.hpp"

#include <algorithm>

namespace hyperrec {

namespace {

std::vector<std::uint8_t> build_log2(std::size_t n) {
  // log2_[len] = floor(log2(len)) for len in [1, n]; index 0 unused.
  std::vector<std::uint8_t> table(n + 1, 0);
  std::uint8_t k = 0;
  for (std::size_t len = 1; len < table.size(); ++len) {
    if ((std::size_t{2} << k) <= len) ++k;
    table[len] = k;
  }
  return table;
}

}  // namespace

TaskTraceStats::TaskTraceStats(const TaskTrace& trace)
    : trace_(&trace),
      steps_(trace.size()),
      universe_(trace.local_universe()),
      words_((universe_ + DynamicBitset::kWordBits - 1) /
             DynamicBitset::kWordBits) {
  log2_ = build_log2(steps_);

  // Sparse tables (binary lifting) over unions and private maxima.
  const std::size_t levels = steps_ == 0 ? 0 : std::size_t{log2_[steps_]} + 1;
  level_row_start_.resize(levels);
  std::size_t rows_total = 0;
  for (std::size_t k = 0; k < levels; ++k) {
    level_row_start_[k] = rows_total;
    rows_total += steps_ - (std::size_t{1} << k) + 1;
  }
  union_rows_.assign(rows_total * words_, 0);
  priv_rows_.assign(rows_total, 0);
  for (std::size_t i = 0; i < steps_; ++i) {
    const ContextRequirement& req = trace.at(i);
    std::copy(req.local.words().begin(), req.local.words().end(),
              union_rows_.begin() + static_cast<std::ptrdiff_t>(i * words_));
    priv_rows_[i] = req.private_demand;
  }
  for (std::size_t k = 1; k < levels; ++k) {
    const std::size_t half = std::size_t{1} << (k - 1);
    const std::size_t rows = steps_ - (std::size_t{1} << k) + 1;
    for (std::size_t i = 0; i < rows; ++i) {
      const DynamicBitset::Word* a = union_rows_.data() + row(k - 1, i) * words_;
      const DynamicBitset::Word* b =
          union_rows_.data() + row(k - 1, i + half) * words_;
      DynamicBitset::Word* out = union_rows_.data() + row(k, i) * words_;
      kernels::or_words(out, a, b, words_);
      priv_rows_[row(k, i)] =
          std::max(priv_rows_[row(k - 1, i)], priv_rows_[row(k - 1, i + half)]);
    }
  }
}

DynamicBitset TaskTraceStats::local_union(std::size_t lo,
                                          std::size_t hi) const {
  check_range(lo, hi);
  if (lo == hi || words_ == 0) return DynamicBitset(universe_);
  const RowPair rows = union_rows_for(lo, hi);
  // Tail bits past size() are zero in both rows by DynamicBitset's
  // invariant, so the OR of the rows is already a valid word image.
  return DynamicBitset::from_or_words(universe_, rows.a, rows.b, words_);
}

MultiTaskTraceStats::MultiTaskTraceStats(const MultiTaskTrace& trace)
    : trace_(&trace), synchronized_(trace.synchronized()) {
  tasks_.reserve(trace.task_count());
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    tasks_.emplace_back(trace.task(j));
  }
  if (!synchronized_ || trace.task_count() == 0) return;

  const std::size_t n = trace.task(0).size();
  demand_sums_.assign(n, 0);
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      demand_sums_[i] += trace.task(j).at(i).private_demand;
    }
  }
  log2_ = build_log2(n);
  const std::size_t levels = n == 0 ? 0 : std::size_t{log2_[n]} + 1;
  demand_levels_.resize(levels);
  if (levels > 0) demand_levels_[0] = demand_sums_;
  for (std::size_t k = 1; k < levels; ++k) {
    const std::size_t half = std::size_t{1} << (k - 1);
    const std::size_t rows = n - (std::size_t{1} << k) + 1;
    demand_levels_[k].resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      demand_levels_[k][i] =
          std::max(demand_levels_[k - 1][i], demand_levels_[k - 1][i + half]);
    }
  }
}

std::uint64_t MultiTaskTraceStats::step_demand_sum(std::size_t i) const {
  HYPERREC_ENSURE(synchronized_, "demand sums need a synchronized trace");
  HYPERREC_ENSURE(i < demand_sums_.size(), "step out of range");
  return demand_sums_[i];
}

std::uint64_t MultiTaskTraceStats::max_step_demand_sum(std::size_t lo,
                                                       std::size_t hi) const {
  HYPERREC_ENSURE(synchronized_, "demand sums need a synchronized trace");
  HYPERREC_ENSURE(lo <= hi && hi <= demand_sums_.size(),
                  "stats query range out of bounds");
  if (lo == hi) return 0;
  const std::size_t k = log2_[hi - lo];
  const std::size_t span = std::size_t{1} << k;
  return std::max(demand_levels_[k][lo], demand_levels_[k][hi - span]);
}

}  // namespace hyperrec
