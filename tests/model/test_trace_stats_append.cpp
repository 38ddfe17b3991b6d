// Appending to the interval tables (model/trace_stats.hpp): after every
// appended step the tables equal a fresh build over the same steps (word-seam
// universes included, through several arena regrowths), an appended table
// agrees with the naive oracles, operator== sees a change in any one row,
// and MultiTaskTraceStats::append_step rejects a bad step without changing
// any table.
#include "model/trace_stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/ensure.hpp"
#include "support/rng.hpp"

namespace hyperrec {
namespace {

ContextRequirement random_requirement(std::size_t universe, Xoshiro256& rng,
                                      double density = 0.3,
                                      std::uint32_t max_demand = 5) {
  ContextRequirement req{DynamicBitset(universe), 0};
  for (std::size_t b = 0; b < universe; ++b) {
    if (rng.flip(density)) req.local.set(b);
  }
  req.private_demand =
      static_cast<std::uint32_t>(rng.uniform(max_demand + 1));
  return req;
}

TEST(TraceStatsAppend, EqualsAFreshBuildAfterEveryStep) {
  // Universe 0 (no words), 1, the 63/64/65 word seams and a multi-word
  // case, each long enough that the arenas regrow at least three times.
  for (const std::size_t universe : {0ul, 1ul, 63ul, 64ul, 65ul, 300ul}) {
    Xoshiro256 rng(0x5EED0 + universe);
    TaskTrace trace(universe);
    TaskTraceStats appended(universe);
    std::size_t regrowths = 0;
    for (std::size_t i = 0; i < 140; ++i) {
      const ContextRequirement req = random_requirement(universe, rng);
      trace.push_back(req);
      const std::size_t capacity = appended.capacity();
      appended.append(req);
      if (capacity > 0 && appended.capacity() != capacity) ++regrowths;
      ASSERT_EQ(appended.steps(), i + 1);
      ASSERT_TRUE(appended == TaskTraceStats(trace))
          << "universe " << universe << " step " << i;
    }
    EXPECT_GE(regrowths, 3u) << "universe " << universe;
  }
}

TEST(TraceStatsAppend, MatchesNaiveOraclesOnRandomRanges) {
  const std::size_t universe = 65;
  Xoshiro256 rng(0xACE);
  TaskTrace trace(universe);
  TaskTraceStats appended(universe);
  for (std::size_t i = 0; i < 48; ++i) {
    const ContextRequirement req = random_requirement(universe, rng, 0.2, 9);
    trace.push_back(req);
    appended.append(req);
  }
  for (int check = 0; check < 200; ++check) {
    const std::size_t lo = rng.uniform(trace.size() + 1);
    const std::size_t hi = lo + rng.uniform(trace.size() + 1 - lo);
    EXPECT_EQ(appended.local_union(lo, hi), trace.local_union_naive(lo, hi));
    EXPECT_EQ(appended.local_union_count(lo, hi),
              trace.local_union_naive(lo, hi).count());
    EXPECT_EQ(appended.max_private_demand(lo, hi),
              trace.max_private_demand_naive(lo, hi));
  }
}

TEST(TraceStatsAppend, EqualityComparesEveryRow) {
  const std::size_t universe = 64;
  Xoshiro256 rng(0xB17);
  TaskTrace trace(universe);
  for (std::size_t i = 0; i < 40; ++i) {
    trace.push_back(random_requirement(universe, rng, 0.15));
  }
  const TaskTraceStats built(trace);
  TaskTraceStats appended(universe);
  for (std::size_t i = 0; i < trace.size(); ++i) appended.append(trace.at(i));
  // Equal tables at different capacities.
  ASSERT_NE(built.capacity(), appended.capacity());
  EXPECT_TRUE(built == appended);

  // One bit or one demand anywhere in the trace changes some row.
  for (const std::size_t step : {0ul, 17ul, 39ul}) {
    TaskTrace bit_flipped(universe);
    TaskTrace demand_bumped(universe);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ContextRequirement req = trace.at(i);
      ContextRequirement bumped = req;
      if (i == step) {
        if (req.local.test(5)) {
          req.local.reset(5);
        } else {
          req.local.set(5);
        }
        bumped.private_demand += 1;
      }
      bit_flipped.push_back(std::move(req));
      demand_bumped.push_back(std::move(bumped));
    }
    EXPECT_FALSE(built == TaskTraceStats(bit_flipped)) << "step " << step;
    EXPECT_FALSE(built == TaskTraceStats(demand_bumped)) << "step " << step;
  }
  // Same rows over a different universe, or a prefix, are different tables.
  EXPECT_FALSE(TaskTraceStats(3) == TaskTraceStats(4));
  EXPECT_FALSE(built == TaskTraceStats(trace.slice(0, 39)));
}

TEST(TraceStatsAppend, EmptyRangesAndEmptyTable) {
  TaskTraceStats stats(10);
  EXPECT_EQ(stats.steps(), 0u);
  EXPECT_EQ(stats.local_union(0, 0), DynamicBitset(10));
  EXPECT_EQ(stats.local_union_count(0, 0), 0u);
  EXPECT_EQ(stats.max_private_demand(0, 0), 0u);
  EXPECT_THROW((void)stats.local_union(0, 1), PreconditionError);
  EXPECT_TRUE(stats == TaskTraceStats(TaskTrace(10)));

  ContextRequirement req{DynamicBitset(10), 7};
  req.local.set(2);
  stats.append(req);
  EXPECT_EQ(stats.local_union_count(0, 1), 1u);
  EXPECT_EQ(stats.max_private_demand(0, 1), 7u);
  const ContextRequirement wrong{DynamicBitset(9), 0};
  EXPECT_THROW(stats.append(wrong), PreconditionError);
  EXPECT_EQ(stats.steps(), 1u);
}

TEST(MultiTaskTraceStats, AppendStepEqualsAFreshBuildAfterEveryStep) {
  const std::vector<std::size_t> universes = {63, 64, 65};
  Xoshiro256 rng(0xD00D);
  MultiTaskTrace trace;
  for (const std::size_t universe : universes) {
    trace.add_task(TaskTrace(universe));
  }
  MultiTaskTraceStats appended(trace);
  for (std::size_t i = 0; i < 40; ++i) {
    std::vector<ContextRequirement> step;
    for (const std::size_t universe : universes) {
      step.push_back(random_requirement(universe, rng, 0.25, 6));
    }
    std::uint64_t expected_sum = 0;
    for (const ContextRequirement& req : step) {
      expected_sum += req.private_demand;
    }
    appended.append_step(step);
    trace.append_step(std::move(step));
    EXPECT_EQ(appended.step_demand_sum(i), expected_sum);
    ASSERT_TRUE(appended == MultiTaskTraceStats(trace)) << "step " << i;
  }

  // Range maxima agree with a scan.
  for (std::size_t lo = 0; lo <= trace.steps(); ++lo) {
    for (std::size_t hi = lo; hi <= trace.steps(); ++hi) {
      std::uint64_t expected = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        expected = std::max(expected, appended.step_demand_sum(i));
      }
      EXPECT_EQ(appended.max_step_demand_sum(lo, hi), expected);
    }
  }
}

TEST(MultiTaskTraceStats, BuiltTablesKeepGrowing) {
  Xoshiro256 rng(0xADE);
  MultiTaskTrace trace;
  TaskTrace a(16);
  TaskTrace b(5);
  for (std::size_t i = 0; i < 10; ++i) {
    a.push_back(random_requirement(16, rng));
    b.push_back(random_requirement(5, rng));
  }
  trace.add_task(std::move(a));
  trace.add_task(std::move(b));

  MultiTaskTraceStats stats(trace);
  std::vector<ContextRequirement> step = {random_requirement(16, rng),
                                          random_requirement(5, rng)};
  stats.append_step(step);
  trace.append_step(std::move(step));
  EXPECT_EQ(stats.task(0).steps(), 11u);
  EXPECT_TRUE(stats == MultiTaskTraceStats(trace));

  EXPECT_THROW(stats.append_step({random_requirement(16, rng)}),
               PreconditionError);
  EXPECT_TRUE(stats == MultiTaskTraceStats(trace));
}

TEST(MultiTaskTraceStats, RejectedStepLeavesTheTablesUnchanged) {
  Xoshiro256 rng(0xBAD);
  MultiTaskTrace trace;
  for (const std::size_t universe : {8ul, 64ul, 65ul}) {
    TaskTrace task(universe);
    for (std::size_t i = 0; i < 20; ++i) {
      task.push_back(random_requirement(universe, rng));
    }
    trace.add_task(std::move(task));
  }
  MultiTaskTraceStats stats(trace);
  const MultiTaskTraceStats before = stats;
  // Only the last requirement's universe is wrong: tasks 0 and 1 would
  // append before the check reached it.
  EXPECT_THROW(stats.append_step({random_requirement(8, rng),
                                  random_requirement(64, rng),
                                  random_requirement(64, rng)}),
               PreconditionError);
  EXPECT_TRUE(stats == before);
  EXPECT_EQ(stats.task(0).steps(), 20u);
  EXPECT_EQ(stats.task(1).steps(), 20u);
}

TEST(MultiTaskTraceStats, AppendStepNeedsATaskAndASynchronizedTrace) {
  MultiTaskTraceStats no_tasks{MultiTaskTrace{}};
  EXPECT_THROW(no_tasks.append_step({}), PreconditionError);

  MultiTaskTrace ragged;
  TaskTrace a(4);
  a.push_back_local(DynamicBitset(4));
  ragged.add_task(std::move(a));
  ragged.add_task(TaskTrace(4));
  MultiTaskTraceStats stats(ragged);
  EXPECT_THROW(stats.append_step({ContextRequirement{DynamicBitset(4), 0},
                                  ContextRequirement{DynamicBitset(4), 0}}),
               PreconditionError);
  EXPECT_TRUE(stats == MultiTaskTraceStats(ragged));
}

}  // namespace
}  // namespace hyperrec
