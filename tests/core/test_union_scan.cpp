// Differential test of the interval DPs' union-size source
// (detail::UnionScan, core/interval_dp.hpp).  Driven the way the DP drives
// it — ends ascending, each end's starts descending from end − 1, with a
// random early stop — every size it reports must equal the naive union's
// count.  The grid covers step ranges that start past step 0, universes on
// both sides of one and two words, one and several tasks, dense short
// scans (which stay on merges) and long scans (which the counters take
// over), and the memory guard that keeps a short range over a huge
// universe on merges.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/interval_dp.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace hyperrec {
namespace {

/// A trace of `steps` steps whose elements are each present with
/// probability `density`.
TaskTrace random_trace(std::size_t universe, std::size_t steps, double density,
                       Xoshiro256& rng) {
  TaskTrace trace(universe);
  for (std::size_t s = 0; s < steps; ++s) {
    DynamicBitset bits(universe);
    for (std::size_t x = 0; x < universe; ++x) {
      if (rng.flip(density)) bits.set(x);
    }
    trace.push_back({std::move(bits), 0});
  }
  return trace;
}

/// A random-walk trace (long optimal intervals), or a sparse random one
/// over an empty universe, which the generator does not take.
TaskTrace walk_trace(std::size_t universe, std::size_t steps,
                     Xoshiro256& rng) {
  if (universe == 0) return random_trace(universe, steps, 0.1, rng);
  return workload::make_family("random-walk", steps, universe, rng);
}

/// Scans steps [lo, hi) of `tasks` like the DP: every end in order, each
/// scan stopping after a priced start with probability `stop`, and checks
/// every size against the naive union.  Returns the number of starts
/// priced.
std::size_t drive(const std::vector<const TaskTrace*>& tasks, std::size_t lo,
                  std::size_t hi, double stop, Xoshiro256& rng,
                  detail::UnionScan& scan) {
  std::size_t priced = 0;
  for (std::size_t end = 1; end <= hi - lo; ++end) {
    std::size_t expected_start = end;
    scan.scan(end, [&](std::size_t start, std::span<const std::size_t> sizes) {
      EXPECT_EQ(start + 1, expected_start) << "starts must descend by one";
      expected_start = start;
      ++priced;
      EXPECT_EQ(sizes.size(), tasks.size());
      for (std::size_t j = 0; j < tasks.size(); ++j) {
        EXPECT_EQ(sizes[j],
                  tasks[j]->local_union_naive(lo + start, lo + end).count())
            << "task " << j << " [" << start << ", " << end << ")";
      }
      return !rng.flip(stop);
    });
  }
  return priced;
}

class UnionScanSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(UnionScanSizes, DenseShortScansMatchNaiveUnions) {
  const std::size_t universe = GetParam();
  Xoshiro256 rng(300 + universe);
  const TaskTrace trace = random_trace(universe, 90, 0.5, rng);
  const std::vector<const TaskTrace*> tasks = {&trace};
  for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{0, 90},
                              {13, 71}}) {
    SCOPED_TRACE("range [" + std::to_string(lo) + ", " + std::to_string(hi) +
                 ")");
    detail::UnionScan scan(tasks, lo, hi);
    EXPECT_GT(drive(tasks, lo, hi, 0.5, rng, scan), hi - lo);
    // Half the elements of every step are new to a short scan, so catching
    // up never pays: the merges answered every start.
    if (universe >= 64) {
      EXPECT_EQ(scan.catch_ups(), 0u);
    }
  }
}

TEST_P(UnionScanSizes, LongScansMatchNaiveUnions) {
  const std::size_t universe = GetParam();
  Xoshiro256 rng(400 + universe);
  const std::vector<TaskTrace> traces = {
      walk_trace(universe, 160, rng),
      random_trace(universe, 160, 0.1, rng)};
  for (const TaskTrace& trace : traces) {
    const std::vector<const TaskTrace*> tasks = {&trace};
    for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{0, 160},
                                {29, 150}}) {
      SCOPED_TRACE("range [" + std::to_string(lo) + ", " + std::to_string(hi) +
                   ")");
      detail::UnionScan scan(tasks, lo, hi);
      drive(tasks, lo, hi, 0.01, rng, scan);
      // The first scan always merges (no rent yet); long scans then buy the
      // counters, unless an empty universe leaves nothing to count.
      if (universe == 0) {
        EXPECT_EQ(scan.catch_ups(), 0u);
        EXPECT_FALSE(scan.counters_allocated());
      } else {
        EXPECT_GT(scan.catch_ups(), 0u);
      }
    }
  }
}

TEST_P(UnionScanSizes, TasksWithDifferentUniversesShareOneScan) {
  const std::size_t universe = GetParam();
  Xoshiro256 rng(500 + universe);
  const TaskTrace a = walk_trace(universe, 120, rng);
  const TaskTrace b = random_trace(universe + 3, 120, 0.3, rng);
  const TaskTrace c = workload::make_family("phased", 120, 17, rng);
  const std::vector<const TaskTrace*> tasks = {&a, &b, &c};
  for (const double stop : {0.5, 0.02}) {
    detail::UnionScan scan(tasks, 7, 113);
    drive(tasks, 7, 113, stop, rng, scan);
  }
}

INSTANTIATE_TEST_SUITE_P(Universes, UnionScanSizes,
                         ::testing::Values(0, 1, 63, 64, 65, 130, 1024));

/// A trace of `steps` steps over `universe` elements, one element each.
TaskTrace sparse_trace(std::size_t universe, std::size_t steps) {
  TaskTrace trace(universe);
  for (std::size_t s = 0; s < steps; ++s) {
    DynamicBitset bits(universe);
    bits.set((s * 7919) % universe);
    trace.push_back({std::move(bits), 0});
  }
  return trace;
}

TEST(UnionScan, ShortRangeOverAHugeUniverseNeverAllocatesCounters) {
  // 2^20 elements take 128 KiB of words per step.  The counters (4 bytes per
  // step and per element) fit in the words of 33 steps but not of 32, so a
  // 32-step range merges however long its scans are.
  constexpr std::size_t kUniverse = std::size_t{1} << 20;
  const TaskTrace trace = sparse_trace(kUniverse, 40);
  const std::vector<const TaskTrace*> tasks = {&trace};
  Xoshiro256 rng(600);

  detail::UnionScan short_range(tasks, 5, 37);
  drive(tasks, 5, 37, 0.0, rng, short_range);
  EXPECT_FALSE(short_range.counters_allocated());
  EXPECT_EQ(short_range.catch_ups(), 0u);

  detail::UnionScan long_enough(tasks, 5, 38);
  drive(tasks, 5, 38, 0.0, rng, long_enough);
  EXPECT_TRUE(long_enough.counters_allocated());
  EXPECT_GT(long_enough.catch_ups(), 0u);
}

TEST(UnionScan, RejectsARangeBeyondTheTrace) {
  const TaskTrace trace = sparse_trace(8, 10);
  const std::vector<const TaskTrace*> tasks = {&trace};
  EXPECT_THROW(detail::UnionScan(tasks, 3, 11), PreconditionError);
  EXPECT_THROW(detail::UnionScan(tasks, 4, 3), PreconditionError);
  EXPECT_THROW(detail::UnionScan({}, 0, 1), PreconditionError);
}

}  // namespace
}  // namespace hyperrec
