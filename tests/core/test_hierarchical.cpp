#include "core/hierarchical.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/aligned_dp.hpp"
#include "support/cost_math.hpp"
#include "support/thread_pool.hpp"
#include "testutil/oracles.hpp"
#include "testutil/trace_builders.hpp"

namespace hyperrec {
namespace {

HierarchicalConfig segmented(std::size_t segment) {
  HierarchicalConfig config;
  config.segment = segment;
  return config;
}

/// Task-sequential hyper upload puts an instance outside the aligned DP's
/// exact class, so solve_hierarchical segments it; task-sequential reconfig
/// upload keeps seam repair live.
constexpr EvalOptions kSegmentedOptions{UploadMode::kTaskSequential,
                                        UploadMode::kTaskSequential, false};

/// Constant trace: every step of every task asks for the same requirement,
/// so all equal-length segments are identical sub-instances.
MultiTaskTrace constant_trace(std::size_t steps) {
  MultiTaskTrace trace;
  TaskTrace t0(3);
  TaskTrace t1(3);
  for (std::size_t i = 0; i < steps; ++i) {
    t0.push_back({DynamicBitset::from_string("110"), 0});
    t1.push_back({DynamicBitset::from_string("011"), 0});
  }
  trace.add_task(std::move(t0));
  trace.add_task(std::move(t1));
  return trace;
}

/// Private demand swaps between the tasks at `half` — one global block
/// cannot serve both peaks (pool 8 < 6 + 6).
MultiTaskTrace swapping_demand_trace(std::size_t half) {
  MultiTaskTrace trace;
  TaskTrace t0(2);
  TaskTrace t1(2);
  for (std::size_t i = 0; i < 2 * half; ++i) {
    const bool first = i < half;
    t0.push_back({DynamicBitset::from_string("10"), first ? 6u : 1u});
    t1.push_back({DynamicBitset::from_string("01"), first ? 1u : 6u});
  }
  trace.add_task(std::move(t0));
  trace.add_task(std::move(t1));
  return trace;
}

MachineSpec pooled_machine() {
  MachineSpec machine = MachineSpec::uniform_local(2, 2);
  machine.private_global_units = 8;
  machine.global_init = 5;
  return machine;
}

TEST(Hierarchical, MultiSegmentSolveIsValidAndCertified) {
  const auto trace = testutil::phased_multi(7, 2, 24, 6);
  const MachineSpec machine = MachineSpec::local_only({6, 6});
  const SolveInstance instance(trace, machine, kSegmentedOptions);
  const HierarchicalConfig config = segmented(6);
  ASSERT_FALSE(engine::portfolio_is_exact(instance, config.portfolio));
  const auto result = solve_hierarchical(instance, config);
  EXPECT_EQ(result.segments, 4u);
  EXPECT_EQ(result.solution.total(),
            evaluate_fully_sync_switch(instance, result.solution.schedule)
                .total);
  ASSERT_TRUE(result.solution.lower_bound.has_value());
  ASSERT_TRUE(result.solution.gap_pct.has_value());
  EXPECT_LE(*result.solution.lower_bound, result.solution.total());
  EXPECT_GE(*result.solution.gap_pct, 0.0);
}

TEST(Hierarchical, CostBracketsTheExhaustiveOptimum) {
  Xoshiro256 rng(11);
  const auto trace = testutil::random_multi_trace(rng, 2, 6, 4);
  const MachineSpec machine = MachineSpec::local_only({4, 4});
  const Cost optimum =
      testutil::brute_force_multi_task(trace, machine, kSegmentedOptions);
  const SolveInstance instance(trace, machine, kSegmentedOptions);
  const HierarchicalConfig config = segmented(2);
  ASSERT_FALSE(engine::portfolio_is_exact(instance, config.portfolio));
  const auto result = solve_hierarchical(instance, config);
  EXPECT_GE(result.solution.total(), optimum);
  ASSERT_TRUE(result.solution.lower_bound.has_value());
  EXPECT_LE(*result.solution.lower_bound, optimum);
}

TEST(Hierarchical, FlatFallbackWhenOneSegmentCoversTheTrace) {
  const auto trace = testutil::phased_pair();
  const MachineSpec machine = MachineSpec::local_only({4, 4});
  const SolveInstance instance(trace, machine);
  const auto result = solve_hierarchical(instance, segmented(100));
  EXPECT_EQ(result.segments, 1u);
  ASSERT_TRUE(result.solution.lower_bound.has_value());
}

TEST(Hierarchical, SegmentStartsAreTaskBoundariesWithoutRepair) {
  const auto trace = testutil::phased_multi(3, 2, 20, 5);
  const MachineSpec machine = MachineSpec::local_only({5, 5});
  const SolveInstance instance(trace, machine, kSegmentedOptions);
  HierarchicalConfig config = segmented(5);
  config.seam_repair = false;
  ASSERT_FALSE(engine::portfolio_is_exact(instance, config.portfolio));
  const auto result = solve_hierarchical(instance, config);
  EXPECT_EQ(result.seam_merges, 0u);
  for (const auto& partition : result.solution.schedule.tasks) {
    for (const std::size_t seam : {5u, 10u, 15u}) {
      EXPECT_TRUE(partition.is_boundary(seam)) << "seam " << seam;
    }
  }
}

TEST(Hierarchical, SeamRepairNeverHurts) {
  std::size_t merges = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Xoshiro256 rng(seed);
    const auto trace = testutil::random_multi_trace(rng, 2, 18, 5);
    const MachineSpec machine = MachineSpec::local_only({5, 5});
    const SolveInstance instance(trace, machine, kSegmentedOptions);
    HierarchicalConfig off = segmented(4);
    off.seam_repair = false;
    HierarchicalConfig on = segmented(4);
    ASSERT_FALSE(engine::portfolio_is_exact(instance, on.portfolio));
    const Cost cost_off = solve_hierarchical(instance, off).solution.total();
    const auto repaired = solve_hierarchical(instance, on);
    EXPECT_LE(repaired.solution.total(), cost_off) << "seed " << seed;
    merges += repaired.seam_merges;
  }
  EXPECT_GT(merges, 0u) << "repair must actually merge somewhere";
}

TEST(Hierarchical, SeamRepairDeltasDoNotWrap) {
  // v = max − 1000 under seq/seq: dropping a seam boundary saves v_j, far
  // more than any reconfiguration delta, so every task merges at every
  // seam.  The seam's Σ_j v_j would wrap; the deltas must not.
  const auto trace = testutil::phased_multi(9, 3, 64, 16);
  MachineSpec machine = MachineSpec::uniform_local(3, 16);
  for (TaskSpec& task : machine.tasks) {
    task.local_init = std::numeric_limits<Cost>::max() - 1000;
  }
  const SolveInstance instance(trace, machine, kSegmentedOptions);
  HierarchicalConfig config = segmented(16);
  config.portfolio.solvers = {"greedy-w8", "coord-descent"};
  ASSERT_FALSE(engine::portfolio_is_exact(instance, config.portfolio));
  const auto result = solve_hierarchical(instance, config);
  EXPECT_EQ(result.segments, 4u);
  EXPECT_EQ(result.seam_merges, 9u);
  for (const auto& partition : result.solution.schedule.tasks) {
    for (const std::size_t seam : {16u, 32u, 48u}) {
      EXPECT_FALSE(partition.is_boundary(seam)) << "seam " << seam;
    }
  }
  EXPECT_EQ(result.solution.total(), kCostInfinity);
}

TEST(Hierarchical, BoundaryDpPlacesMandatoryGlobalBoundary) {
  const auto trace = swapping_demand_trace(8);  // demand swap at step 8
  const SolveInstance instance(trace, pooled_machine());
  const auto result = solve_hierarchical(instance, segmented(4));
  EXPECT_EQ(result.segments, 4u);
  const auto& bounds = result.solution.schedule.global_boundaries;
  ASSERT_EQ(bounds.size(), 2u) << "one block per demand phase";
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[1], 8u);
  EXPECT_EQ(result.global_blocks, 2u);
}

TEST(Hierarchical, BoundaryDpMergesBlocksWhenPoolAllows) {
  const auto trace = swapping_demand_trace(8);
  MachineSpec machine = pooled_machine();
  machine.private_global_units = 14;  // both peaks fit one block
  machine.global_init = 1000;
  const SolveInstance instance(trace, machine);
  const auto result = solve_hierarchical(instance, segmented(4));
  EXPECT_EQ(result.solution.schedule.global_boundaries.size(), 1u);
  EXPECT_EQ(result.global_blocks, 1u);
}

TEST(Hierarchical, InfeasibleSegmentThrowsWithAdvice) {
  MultiTaskTrace trace;
  TaskTrace t0(2);
  TaskTrace t1(2);
  for (int i = 0; i < 8; ++i) {
    t0.push_back({DynamicBitset::from_string("10"), i == 3 ? 5u : 1u});
    t1.push_back({DynamicBitset::from_string("01"), i == 3 ? 5u : 1u});
  }
  trace.add_task(std::move(t0));
  trace.add_task(std::move(t1));
  const SolveInstance instance(trace, pooled_machine());
  try {
    (void)solve_hierarchical(instance, segmented(4));
    FAIL() << "hot step exceeds the pool; no segmentation can help";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("segment"), std::string::npos);
  }
}

TEST(Hierarchical, ChangeoverIsRejected) {
  const auto trace = testutil::phased_pair();
  const MachineSpec machine = MachineSpec::local_only({4, 4});
  EvalOptions options;
  options.changeover = true;
  const SolveInstance instance(trace, machine, options);
  EXPECT_THROW((void)solve_hierarchical(instance, segmented(2)),
               PreconditionError);
}

TEST(Hierarchical, SharedCacheServesRepeatedSegmentShapes) {
  const auto trace = constant_trace(16);
  const MachineSpec machine = MachineSpec::local_only({3, 3});
  const SolveInstance instance(trace, machine, kSegmentedOptions);
  HierarchicalConfig config = segmented(4);
  config.cache = std::make_shared<cache::SolveCache>();
  ASSERT_FALSE(engine::portfolio_is_exact(instance, config.portfolio));
  const auto first = solve_hierarchical(instance, config);
  EXPECT_EQ(first.segments, 4u);
  EXPECT_GE(first.cache_hits, 3u) << "all four windows are identical";
  const auto second = solve_hierarchical(instance, config);
  EXPECT_EQ(second.cache_hits, second.segments);
  EXPECT_EQ(second.solution.total(), first.solution.total());
}

TEST(Hierarchical, ParallelMatchesSerial) {
  const auto trace = testutil::phased_multi(21, 3, 40, 6);
  const MachineSpec machine = MachineSpec::local_only({6, 6, 6});
  const SolveInstance instance(trace, machine, kSegmentedOptions);
  const HierarchicalConfig config = segmented(8);
  ASSERT_FALSE(engine::portfolio_is_exact(instance, config.portfolio));
  // Submitted from a worker of the global pool, the solve takes the
  // on-worker serial fallback; from this thread it fans out over the pool.
  const auto a =
      ThreadPool::global()
          .submit([&] { return solve_hierarchical(instance, config); })
          .get();
  const auto b = solve_hierarchical(instance, config);
  EXPECT_EQ(a.solution.total(), b.solution.total());
  EXPECT_EQ(a.solution.schedule.global_boundaries,
            b.solution.schedule.global_boundaries);
  for (std::size_t j = 0; j < instance.task_count(); ++j) {
    EXPECT_EQ(a.solution.schedule.tasks[j].starts(),
              b.solution.schedule.tasks[j].starts());
  }
}

TEST(Hierarchical, ExactInstanceIsSolvedFlatAtAnyLength) {
  // In the aligned DP's exact class (par/seq upload, equal v_j, local-only
  // machine) a trace four segments long still comes back as one window:
  // the aligned DP's optimum, certified by itself.
  const auto trace = testutil::phased_multi(7, 2, 24, 6);
  const MachineSpec machine = MachineSpec::local_only({6, 6});
  const SolveInstance instance(trace, machine);
  const HierarchicalConfig config = segmented(6);
  ASSERT_TRUE(engine::portfolio_is_exact(instance, config.portfolio));
  const auto result = solve_hierarchical(instance, config);
  EXPECT_EQ(result.segments, 1u);
  EXPECT_EQ(result.seam_merges, 0u);

  const MTSolution optimum = solve_aligned_dp(instance);
  EXPECT_EQ(result.solution.total(), optimum.total());
  ASSERT_EQ(result.solution.schedule.tasks.size(),
            optimum.schedule.tasks.size());
  for (std::size_t j = 0; j < optimum.schedule.tasks.size(); ++j) {
    EXPECT_EQ(result.solution.schedule.tasks[j].starts(),
              optimum.schedule.tasks[j].starts());
  }
  EXPECT_EQ(result.solution.schedule.global_boundaries,
            optimum.schedule.global_boundaries);
  ASSERT_TRUE(result.solution.lower_bound.has_value());
  EXPECT_EQ(*result.solution.lower_bound, result.solution.total());
  ASSERT_TRUE(result.solution.gap_pct.has_value());
  EXPECT_EQ(*result.solution.gap_pct, 0.0);

  // A line-up without aligned-dp segments the same instance and cannot
  // beat the optimum.
  HierarchicalConfig racing = segmented(6);
  racing.portfolio.solvers = {"coord-descent"};
  ASSERT_FALSE(engine::portfolio_is_exact(instance, racing.portfolio));
  const auto segmented_result = solve_hierarchical(instance, racing);
  EXPECT_EQ(segmented_result.segments, 4u);
  EXPECT_LE(result.solution.total(), segmented_result.solution.total());
}

TEST(Hierarchical, ExactFlatSolveGoesThroughTheCache) {
  const auto trace = testutil::phased_multi(5, 2, 24, 6);
  const MachineSpec machine = MachineSpec::local_only({6, 6});
  const SolveInstance instance(trace, machine);
  HierarchicalConfig config = segmented(6);
  config.cache = std::make_shared<cache::SolveCache>();
  ASSERT_TRUE(engine::portfolio_is_exact(instance, config.portfolio));
  const auto first = solve_hierarchical(instance, config);
  EXPECT_EQ(first.segments, 1u);
  EXPECT_EQ(first.cache_hits, 0u);
  const auto second = solve_hierarchical(instance, config);
  EXPECT_EQ(second.segments, 1u);
  EXPECT_EQ(second.cache_hits, 1u);
  EXPECT_EQ(second.solution.total(), first.solution.total());
  EXPECT_EQ(second.solution.lower_bound, second.solution.total());
}

}  // namespace
}  // namespace hyperrec
