// Incremental trace stats: bit-identical to a from-scratch rebuild at every
// appended step (word-seam universes included), naive-oracle agreement on
// random ranges, the adopting bulk build, and contract violations.
#include "streaming/stream_stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "model/trace_stats.hpp"
#include "support/ensure.hpp"
#include "support/rng.hpp"

namespace hyperrec::streaming {
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

TEST(TaskStreamStats, AppendIsBitIdenticalToRebuildAtEveryStep) {
  // Universe 0 (no words), 1, the 63/64/65 word seams, and a multi-word
  // case; every appended step is checked against a fresh offline build.
  for (const std::size_t universe : {0ul, 1ul, 63ul, 64ul, 65ul, 300ul}) {
    Xoshiro256 rng(0x5EED0 + universe);
    TaskTrace trace(universe);
    TaskStreamStats stream(universe);
    for (std::size_t i = 0; i < 33; ++i) {
      const ContextRequirement req = random_requirement(universe, rng);
      trace.push_back(req);
      stream.append(req);
      ASSERT_EQ(stream.steps(), i + 1);
      const TaskTraceStats full(trace);
      ASSERT_NO_THROW(stream.assert_consistent_with(full))
          << "universe " << universe << " step " << i;
    }
  }
}

TEST(TaskStreamStats, MatchesNaiveOraclesOnRandomRanges) {
  const std::size_t universe = 65;
  Xoshiro256 rng(0xACE);
  TaskTrace trace(universe);
  TaskStreamStats stream(universe);
  for (std::size_t i = 0; i < 48; ++i) {
    const ContextRequirement req = random_requirement(universe, rng, 0.2, 9);
    trace.push_back(req);
    stream.append(req);
  }
  for (int check = 0; check < 200; ++check) {
    const std::size_t lo = rng.uniform(trace.size() + 1);
    const std::size_t hi = lo + rng.uniform(trace.size() + 1 - lo);
    EXPECT_EQ(stream.local_union(lo, hi), trace.local_union_naive(lo, hi));
    EXPECT_EQ(stream.local_union_count(lo, hi),
              trace.local_union_naive(lo, hi).count());
    EXPECT_EQ(stream.max_private_demand(lo, hi),
              trace.max_private_demand_naive(lo, hi));
  }
}

TEST(TaskStreamStats, BulkBuildEqualsAppendedBuild) {
  const std::size_t universe = 64;
  Xoshiro256 rng(0xB17);
  TaskTrace trace(universe);
  TaskStreamStats appended(universe);
  for (std::size_t i = 0; i < 40; ++i) {
    const ContextRequirement req = random_requirement(universe, rng, 0.15);
    trace.push_back(req);
    appended.append(req);
  }
  const TaskStreamStats bulk(trace);
  const TaskTraceStats full(trace);
  ASSERT_NO_THROW(bulk.assert_consistent_with(full));
  ASSERT_NO_THROW(appended.assert_consistent_with(full));
}

TEST(TaskStreamStats, EmptyRangesAndEmptyStream) {
  TaskStreamStats stream(10);
  EXPECT_EQ(stream.steps(), 0u);
  EXPECT_EQ(stream.local_union(0, 0), DynamicBitset(10));
  EXPECT_EQ(stream.local_union_count(0, 0), 0u);
  EXPECT_EQ(stream.max_private_demand(0, 0), 0u);
  EXPECT_THROW(stream.local_union(0, 1), PreconditionError);

  ContextRequirement req{DynamicBitset(10), 7};
  req.local.set(2);
  stream.append(req);
  EXPECT_EQ(stream.local_union_count(0, 1), 1u);
  EXPECT_EQ(stream.max_private_demand(0, 1), 7u);
  ContextRequirement wrong{DynamicBitset(9), 0};
  EXPECT_THROW(stream.append(wrong), PreconditionError);
}

TEST(TraceBuilderStats, PerStepAppendStaysConsistentWithRebuild) {
  const std::vector<std::size_t> universes = {63, 64, 65};
  Xoshiro256 rng(0xD00D);
  TraceBuilderStats builder(universes);
  for (std::size_t i = 0; i < 24; ++i) {
    std::vector<ContextRequirement> step;
    for (const std::size_t universe : universes) {
      step.push_back(random_requirement(universe, rng, 0.25, 6));
    }
    std::uint64_t expected_sum = 0;
    for (const ContextRequirement& req : step) {
      expected_sum += req.private_demand;
    }
    builder.append_step(std::move(step));
    ASSERT_EQ(builder.steps(), i + 1);
    EXPECT_EQ(builder.step_demand_sum(i), expected_sum);
    ASSERT_NO_THROW(builder.assert_consistent_with_rebuild()) << "step " << i;
  }
  EXPECT_EQ(builder.trace().steps(), 24u);

  // Range maxima agree with a scan.
  for (std::size_t lo = 0; lo <= builder.steps(); ++lo) {
    for (std::size_t hi = lo; hi <= builder.steps(); ++hi) {
      std::uint64_t expected = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        expected = std::max(expected, builder.step_demand_sum(i));
      }
      EXPECT_EQ(builder.max_step_demand_sum(lo, hi), expected);
    }
  }
}

TEST(TraceBuilderStats, AdoptsAnExistingTraceAndKeepsGrowing) {
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

  TraceBuilderStats builder(std::move(trace));
  EXPECT_EQ(builder.steps(), 10u);
  ASSERT_NO_THROW(builder.assert_consistent_with_rebuild());

  builder.append_step({random_requirement(16, rng), random_requirement(5, rng)});
  EXPECT_EQ(builder.steps(), 11u);
  ASSERT_NO_THROW(builder.assert_consistent_with_rebuild());

  EXPECT_THROW(builder.append_step({random_requirement(16, rng)}),
               PreconditionError);
}

TEST(TraceBuilderStats, RejectsEmptyAndUnsynchronizedConstruction) {
  EXPECT_THROW(TraceBuilderStats(std::vector<std::size_t>{}),
               PreconditionError);
  MultiTaskTrace ragged;
  TaskTrace a(4);
  a.push_back_local(DynamicBitset(4));
  TaskTrace b(4);
  ragged.add_task(std::move(a));
  ragged.add_task(std::move(b));
  EXPECT_THROW(TraceBuilderStats(std::move(ragged)), PreconditionError);
}

}  // namespace
}  // namespace hyperrec::streaming
