// Property tests for the precomputed interval-query views
// (model/trace_stats.hpp) against the naive linear-rescan oracles kept on
// TaskTrace, plus SolveInstance construction contracts.
//
// The fuzz grid deliberately straddles the 64-bit word seams (universes 63,
// 64, 65) where tail-masking bugs live, the degenerate universes 0 and 1,
// and a multi-word universe (300).  Every (lo, hi) pair is checked,
// including empty ranges and the full-trace range.
#include "model/trace_stats.hpp"

#include <gtest/gtest.h>

#include "model/instance.hpp"
#include "support/rng.hpp"

namespace hyperrec {
namespace {

TaskTrace random_trace(std::size_t universe, std::size_t steps,
                       double density, std::uint32_t priv_cap,
                       Xoshiro256& rng) {
  TaskTrace trace(universe);
  for (std::size_t i = 0; i < steps; ++i) {
    DynamicBitset local(universe);
    for (std::size_t b = 0; b < universe; ++b) {
      if (rng.flip(density)) local.set(b);
    }
    const std::uint32_t priv =
        priv_cap == 0 ? 0
                      : static_cast<std::uint32_t>(rng.uniform(priv_cap + 1));
    trace.push_back({std::move(local), priv});
  }
  return trace;
}

TEST(TraceStatsProperty, MatchesNaiveOraclesOnEveryRange) {
  Xoshiro256 rng(0xDECAF5EEDull);
  const std::size_t universes[] = {0, 1, 63, 64, 65, 300};
  const std::size_t step_counts[] = {1, 2, 7, 33};
  const double densities[] = {0.0, 0.08, 0.5, 1.0};

  for (const std::size_t universe : universes) {
    for (const std::size_t steps : step_counts) {
      for (const double density : densities) {
        const TaskTrace trace =
            random_trace(universe, steps, density, 5, rng);
        const TaskTraceStats stats(trace);
        ASSERT_EQ(stats.steps(), steps);
        ASSERT_EQ(stats.universe(), universe);

        for (std::size_t lo = 0; lo <= steps; ++lo) {
          for (std::size_t hi = lo; hi <= steps; ++hi) {
            const DynamicBitset expected = trace.local_union_naive(lo, hi);
            const DynamicBitset actual = stats.local_union(lo, hi);
            ASSERT_EQ(actual, expected)
                << "universe " << universe << " range [" << lo << ", " << hi
                << ")";
            ASSERT_EQ(stats.local_union_count(lo, hi), expected.count());
            ASSERT_EQ(stats.max_private_demand(lo, hi),
                      trace.max_private_demand_naive(lo, hi));
            // Fused |base ∪ U(lo, hi)| against an independently built union.
            const DynamicBitset base =
                trace.local_union_naive(0, std::min(lo, std::size_t{2}));
            ASSERT_EQ(stats.local_union_count_with(base, lo, hi),
                      (base | expected).count());
          }
        }
      }
    }
  }
}

TEST(TraceStats, EmptyTraceAnswersEmptyRangeQueries) {
  const TaskTrace trace(48);
  const TaskTraceStats stats(trace);
  EXPECT_EQ(stats.local_union(0, 0).count(), 0u);
  EXPECT_EQ(stats.local_union_count(0, 0), 0u);
  EXPECT_EQ(stats.max_private_demand(0, 0), 0u);
}

TEST(TraceStats, OutOfBoundsRangesThrow) {
  Xoshiro256 rng(0xE44);
  const TaskTrace trace = random_trace(8, 5, 0.5, 0, rng);
  const TaskTraceStats stats(trace);
  EXPECT_THROW((void)stats.local_union(3, 2), PreconditionError);
  EXPECT_THROW((void)stats.local_union(0, 6), PreconditionError);
  EXPECT_THROW((void)stats.local_union_count(0, 6), PreconditionError);
  EXPECT_THROW((void)stats.max_private_demand(4, 6), PreconditionError);
}

TEST(TraceStats, EqualityComparesEveryRow) {
  const std::size_t universe = 64;
  Xoshiro256 rng(0xB17);
  const TaskTrace trace = random_trace(universe, 40, 0.15, 5, rng);
  const TaskTraceStats built(trace);
  EXPECT_TRUE(built == TaskTraceStats(trace));

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
  EXPECT_FALSE(TaskTraceStats(TaskTrace(3)) == TaskTraceStats(TaskTrace(4)));
  EXPECT_FALSE(built == TaskTraceStats(trace.slice(0, 39)));
}

TEST(MultiTaskTraceStats, NonSynchronizedTracesBuildPerTaskTables) {
  Xoshiro256 rng(0xCD);
  MultiTaskTrace trace;
  trace.add_task(random_trace(4, 3, 0.5, 2, rng));
  trace.add_task(random_trace(4, 5, 0.5, 2, rng));
  const MultiTaskTraceStats stats(trace);
  ASSERT_EQ(stats.task_count(), 2u);
  EXPECT_EQ(stats.task(0).steps(), 3u);
  EXPECT_EQ(stats.task(1).local_union(0, 5),
            trace.task(1).local_union_naive(0, 5));
  EXPECT_EQ(stats.task(1).max_private_demand(1, 5),
            trace.task(1).max_private_demand_naive(1, 5));
}

TEST(SolveInstance, ValidatesAndExposesTheTriple) {
  Xoshiro256 rng(0xEF);
  MultiTaskTrace trace;
  trace.add_task(random_trace(6, 8, 0.4, 0, rng));
  trace.add_task(random_trace(9, 8, 0.4, 0, rng));
  const MachineSpec machine = MachineSpec::local_only({6, 9});
  EvalOptions options;
  options.changeover = true;

  const SolveInstance instance(trace, machine, options);
  EXPECT_EQ(instance.task_count(), 2u);
  EXPECT_EQ(instance.steps(), 8u);
  EXPECT_TRUE(instance.synchronized());
  EXPECT_TRUE(instance.options().changeover);
  EXPECT_EQ(instance.task_stats(1).local_union(0, 8),
            instance.trace().task(1).local_union_naive(0, 8));

  // Shape mismatch must be rejected at the boundary, not deep in a solver.
  const MachineSpec wrong = MachineSpec::local_only({6});
  EXPECT_THROW(SolveInstance(trace, wrong, options), PreconditionError);
}

TEST(SolveInstance, MoveKeepsTheStatsViewsValid) {
  Xoshiro256 rng(0x1234);
  MultiTaskTrace trace;
  trace.add_task(random_trace(65, 20, 0.25, 3, rng));
  MachineSpec machine = MachineSpec::local_only({65});
  machine.private_global_units = 8;  // the trace carries private demands
  SolveInstance original(trace, machine);
  const DynamicBitset expected = trace.task(0).local_union_naive(2, 17);

  // The tables are built on first use, which here comes after the move:
  // they must equal a fresh build over the same trace.
  SolveInstance moved = std::move(original);
  EXPECT_EQ(moved.task_stats(0).local_union(2, 17), expected);
  EXPECT_EQ(moved.task_stats(0).max_private_demand(0, 20),
            trace.task(0).max_private_demand_naive(0, 20));
  EXPECT_TRUE(moved.stats() == MultiTaskTraceStats(trace));

  // Once built, a further move hands out the same tables, not a rebuild.
  const MultiTaskTraceStats* built = &moved.stats();
  const SolveInstance again = std::move(moved);
  EXPECT_EQ(&again.stats(), built);
}

}  // namespace
}  // namespace hyperrec
