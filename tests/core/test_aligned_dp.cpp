#include "core/aligned_dp.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/interval_dp.hpp"
#include "support/cost_math.hpp"
#include "testutil/oracles.hpp"
#include "testutil/trace_builders.hpp"
#include "workload/generators.hpp"

namespace hyperrec {
namespace {

using testutil::phased_pair;

TEST(AlignedDp, AllPartitionsIdenticalAcrossTasks) {
  const auto trace = phased_pair();
  const auto machine = MachineSpec::uniform_local(2, 4);
  const auto solution = solve_aligned_dp(SolveInstance(trace, machine));
  ASSERT_EQ(solution.schedule.tasks.size(), 2u);
  EXPECT_EQ(solution.schedule.tasks[0].starts(),
            solution.schedule.tasks[1].starts());
}

TEST(AlignedDp, MatchesAlignedBruteForceParallelParallel) {
  const auto trace = phased_pair();
  const auto machine = MachineSpec::uniform_local(2, 4);
  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskParallel,
                      false};
  const auto solution =
      solve_aligned_dp(SolveInstance(trace, machine, options));
  EXPECT_EQ(solution.total(),
            testutil::brute_force_aligned(trace, machine, options));
}

TEST(AlignedDp, MatchesAlignedBruteForceSequentialSequential) {
  const auto trace = phased_pair();
  const auto machine = MachineSpec::uniform_local(2, 4);
  EvalOptions options{UploadMode::kTaskSequential, UploadMode::kTaskSequential,
                      false};
  const auto solution =
      solve_aligned_dp(SolveInstance(trace, machine, options));
  EXPECT_EQ(solution.total(),
            testutil::brute_force_aligned(trace, machine, options));
}

TEST(AlignedDp, MatchesAlignedBruteForceOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    workload::MultiPhasedConfig config;
    config.tasks = 2;
    config.task_config.steps = 8;
    config.task_config.universe = 5;
    config.task_config.phases = 2;
    const auto trace = workload::make_multi_phased(config, seed);
    const auto machine = MachineSpec::uniform_local(2, 5);
    for (const auto hyper :
         {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
      for (const auto reconfig :
           {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
        EvalOptions options{hyper, reconfig, false};
        const auto solution =
            solve_aligned_dp(SolveInstance(trace, machine, options));
        EXPECT_EQ(solution.total(),
                  testutil::brute_force_aligned(trace, machine, options))
            << "seed " << seed;
      }
    }
  }
}

TEST(AlignedDp, ReducesToSingleTaskDpForOneTask) {
  const auto trace = MultiTaskTrace::from_local(
      {4}, {{DynamicBitset::from_string("1100"),
             DynamicBitset::from_string("1100"),
             DynamicBitset::from_string("0011")}});
  const auto machine = MachineSpec::local_only({4});
  const auto aligned = solve_aligned_dp(SolveInstance(trace, machine));
  const auto single = solve_single_task_switch(trace.task(0), 4);
  EXPECT_EQ(aligned.total(), single.total);
}

TEST(AlignedDp, ChangeoverRejected) {
  const auto trace = phased_pair();
  const auto machine = MachineSpec::uniform_local(2, 4);
  EvalOptions options;
  options.changeover = true;
  EXPECT_THROW(solve_aligned_dp(SolveInstance(trace, machine, options)),
               PreconditionError);
}

TEST(AlignedDp, SolutionEvaluatesToReportedCost) {
  const auto trace = phased_pair();
  const auto machine = MachineSpec::uniform_local(2, 4);
  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                      false};
  const auto solution =
      solve_aligned_dp(SolveInstance(trace, machine, options));
  EXPECT_EQ(
      solution.total(),
      evaluate_fully_sync_switch(trace, machine, solution.schedule, options)
          .total);
}

TEST(AlignedDp, ExactClassPredicate) {
  const auto trace = phased_pair();
  const MachineSpec machine = MachineSpec::uniform_local(2, 4);
  EXPECT_TRUE(aligned_dp_is_exact(SolveInstance(trace, machine)));
  // Either reconfig upload mode stays in the class.
  EXPECT_TRUE(aligned_dp_is_exact(SolveInstance(
      trace, machine,
      {UploadMode::kTaskParallel, UploadMode::kTaskParallel, false})));

  EXPECT_FALSE(aligned_dp_is_exact(SolveInstance(
      trace, machine,
      {UploadMode::kTaskSequential, UploadMode::kTaskSequential, false})));
  EvalOptions changeover;
  changeover.changeover = true;
  EXPECT_FALSE(aligned_dp_is_exact(SolveInstance(trace, machine, changeover)));
  MachineSpec unequal = machine;
  unequal.tasks[1].local_init += 1;
  EXPECT_FALSE(aligned_dp_is_exact(SolveInstance(trace, unequal)));
  MachineSpec global = machine;
  global.public_context_size = 1;
  EXPECT_FALSE(aligned_dp_is_exact(SolveInstance(trace, global)));
}

TEST(AlignedDp, AdversarialInitCostSaturatesInsteadOfWrapping) {
  // best[start] + hyper_term + reconfig_term·len with an equal local_init
  // near the Cost maximum used to wrap negative (signed overflow, UB) and
  // make the DP "prefer" the corrupted candidate.  With saturating cost
  // arithmetic every candidate clamps at the sentinel, the single interval
  // (the optimum: each extra boundary costs another v) wins, and the
  // evaluated total v + 2 tasks × |{s0..s3}| × 4 steps saturates the same
  // way: exact below the sentinel, kCostInfinity from it on.
  const auto trace = MultiTaskTrace::from_local(
      {4, 4}, {{DynamicBitset::from_string("1100"),
                DynamicBitset::from_string("1100"),
                DynamicBitset::from_string("0011"),
                DynamicBitset::from_string("0011")},
               {DynamicBitset::from_string("0011"),
                DynamicBitset::from_string("0011"),
                DynamicBitset::from_string("1100"),
                DynamicBitset::from_string("1100")}});
  for (const Cost huge :
       {kCostInfinity - 100, kCostInfinity - 1, kCostInfinity,
        kCostInfinity + 7,
        std::numeric_limits<Cost>::max() / 2,
        std::numeric_limits<Cost>::max() - 1000}) {
    MachineSpec machine = MachineSpec::uniform_local(2, 4);
    for (TaskSpec& task : machine.tasks) task.local_init = huge;
    const SolveInstance instance(trace, machine);
    ASSERT_TRUE(aligned_dp_is_exact(instance));
    const MTSolution solution = solve_aligned_dp(instance);
    for (const Partition& partition : solution.schedule.tasks) {
      EXPECT_EQ(partition.interval_count(), 1u) << "v = " << huge;
    }
    EXPECT_EQ(solution.total(), cost_add(huge, 2 * 4 * 4)) << "v = " << huge;
  }
}

}  // namespace
}  // namespace hyperrec
