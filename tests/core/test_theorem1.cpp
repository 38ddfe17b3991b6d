#include "core/theorem1.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/coordinate_descent.hpp"
#include "core/exhaustive.hpp"
#include "core/interval_dp.hpp"
#include "testutil/trace_builders.hpp"

namespace hyperrec {
namespace {

MultiTaskTrace phased(std::uint64_t seed, std::size_t tasks, std::size_t steps,
                      std::size_t universe) {
  return testutil::phased_multi(seed, tasks, steps, universe, /*phases=*/2);
}

TEST(Theorem1Dp, MatchesExhaustiveOnTinyInstances) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto trace = phased(seed, 2, 7, 5);
    const auto machine = MachineSpec::uniform_local(2, 5);
    EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                        false};
    const auto exact = solve_exhaustive(SolveInstance(trace, machine, options));
    const auto dp = solve_theorem1_dp(trace, machine, options);
    EXPECT_EQ(dp.total(), exact.total()) << "seed " << seed;
  }
}

TEST(Theorem1Dp, MatchesExhaustiveThreeTasks) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto trace = phased(seed, 3, 6, 4);
    const auto machine = MachineSpec::uniform_local(3, 4);
    EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                        false};
    const auto exact = solve_exhaustive(SolveInstance(trace, machine, options));
    const auto dp = solve_theorem1_dp(trace, machine, options);
    EXPECT_EQ(dp.total(), exact.total()) << "seed " << seed;
  }
}

TEST(Theorem1Dp, MatchesExhaustiveAllDisciplines) {
  const auto trace = phased(42, 2, 6, 4);
  const auto machine = MachineSpec::uniform_local(2, 4);
  for (const auto hyper :
       {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
    for (const auto reconfig :
         {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
      EvalOptions options{hyper, reconfig, false};
      EXPECT_EQ(
          solve_theorem1_dp(trace, machine, options).total(),
          solve_exhaustive(SolveInstance(trace, machine, options)).total());
    }
  }
}

TEST(Theorem1Dp, ReducesToIntervalDpForOneTask) {
  const auto trace = phased(7, 1, 20, 8);
  const auto machine = MachineSpec::local_only({8});
  const auto dp = solve_theorem1_dp(trace, machine, {});
  const auto single = solve_single_task_switch(trace.task(0), 8);
  EXPECT_EQ(dp.total(), single.total);
}

TEST(Theorem1Dp, ScalesBeyondExhaustiveReach) {
  // m = 2, n = 40: exhaustive would need 2^78 schedules; the DP is exact in
  // polynomial time.  Cross-check against coordinate descent (a lower bound
  // check: CD can never beat the optimum).
  const auto trace = phased(11, 2, 40, 6);
  const auto machine = MachineSpec::uniform_local(2, 6);
  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                      false};
  const auto dp = solve_theorem1_dp(trace, machine, options);
  const auto descent =
      solve_coordinate_descent(SolveInstance(trace, machine, options));
  EXPECT_LE(dp.total(), descent.total());
  EXPECT_NO_THROW(dp.schedule.validate(2, 40));
  EXPECT_EQ(dp.total(),
            evaluate_fully_sync_switch(trace, machine, dp.schedule, options)
                .total);
}

TEST(Theorem1Dp, StateSpaceEstimate) {
  const auto trace = phased(1, 2, 10, 4);
  const auto machine = MachineSpec::uniform_local(2, 4);
  // n · (n·(l+1))² = 10 · (10·5)² = 25000.
  EXPECT_DOUBLE_EQ(theorem1_state_space(trace, machine), 25000.0);
}

TEST(Theorem1Dp, GuardsReject) {
  const auto trace = phased(1, 2, 10, 4);
  auto machine = MachineSpec::uniform_local(2, 4);

  EvalOptions changeover;
  changeover.changeover = true;
  EXPECT_THROW(solve_theorem1_dp(trace, machine, changeover),
               PreconditionError);

  machine.private_global_units = 3;
  EXPECT_THROW(solve_theorem1_dp(trace, machine, {}), PreconditionError);
  machine.private_global_units = 0;

  const auto big = phased(1, 2, 65, 4);
  EXPECT_THROW(
      solve_theorem1_dp(big, MachineSpec::uniform_local(2, 4), {}),
      PreconditionError)
      << "n > 64 exceeds the state packing";

  const auto wide = phased(1, 4, 6, 4);
  EXPECT_THROW(
      solve_theorem1_dp(wide, MachineSpec::uniform_local(4, 4), {}),
      PreconditionError)
      << "m > 3 unsupported";
}

TEST(Theorem1Dp, SaturatedCostsAreRejectedInsteadOfWrapping) {
  // Hyperreconfiguring twice at v ≈ max/2 used to wrap Cost negative and
  // make the DP prefer the corrupted schedule.
  const auto trace = phased(1, 2, 4, 3);
  MachineSpec machine = MachineSpec::uniform_local(2, 3);
  for (TaskSpec& task : machine.tasks) {
    task.local_init = std::numeric_limits<Cost>::max() / 2;
  }
  EXPECT_THROW((void)solve_theorem1_dp(trace, machine), PreconditionError);
}

}  // namespace
}  // namespace hyperrec
