#include "core/coordinate_descent.hpp"

#include <gtest/gtest.h>

#include "core/aligned_dp.hpp"
#include "core/exhaustive.hpp"
#include "testutil/trace_builders.hpp"

namespace hyperrec {
namespace {

MultiTaskTrace phased(std::uint64_t seed, std::size_t tasks, std::size_t steps,
                      std::size_t universe) {
  return testutil::phased_multi(seed, tasks, steps, universe, /*phases=*/2);
}

TEST(CoordinateDescent, NeverWorseThanAlignedSeed) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto trace = phased(seed, 3, 20, 6);
    const auto machine = MachineSpec::uniform_local(3, 6);
    EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                        false};
    const SolveInstance instance(trace, machine, options);
    const auto aligned = solve_aligned_dp(instance);
    const auto descent = solve_coordinate_descent(instance);
    EXPECT_LE(descent.total(), aligned.total()) << "seed " << seed;
  }
}

TEST(CoordinateDescent, MatchesExhaustiveOnTinyInstances) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto trace = phased(seed, 2, 7, 4);
    const auto machine = MachineSpec::uniform_local(2, 4);
    EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                        false};
    const SolveInstance instance(trace, machine, options);
    const auto exact = solve_exhaustive(instance);
    const auto descent = solve_coordinate_descent(instance);
    EXPECT_GE(descent.total(), exact.total()) << "CD cannot beat the optimum";
    // Local search is not guaranteed optimal, but on these tiny phased
    // instances it should stay within a small factor.
    EXPECT_LE(descent.total(), exact.total() * 11 / 10)
        << "seed " << seed << ": CD more than 10% off the optimum";
  }
}

TEST(CoordinateDescent, RespectsSeedSchedule) {
  const auto trace = phased(3, 2, 10, 5);
  const auto machine = MachineSpec::uniform_local(2, 5);
  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                      false};
  CoordinateDescentConfig config;
  config.seed.push_back(MultiTaskSchedule::all_every_step(2, 10));
  const auto from_every =
      solve_coordinate_descent(SolveInstance(trace, machine, options), config);
  const Cost every_cost =
      evaluate_fully_sync_switch(trace, machine,
                                 MultiTaskSchedule::all_every_step(2, 10),
                                 options)
          .total;
  EXPECT_LE(from_every.total(), every_cost)
      << "descent must not regress from its seed";
}

TEST(CoordinateDescent, TaskParallelReconfigSupported) {
  const auto trace = phased(5, 3, 15, 6);
  const auto machine = MachineSpec::uniform_local(3, 6);
  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskParallel,
                      false};
  const SolveInstance instance(trace, machine, options);
  const auto aligned = solve_aligned_dp(instance);
  const auto descent = solve_coordinate_descent(instance);
  EXPECT_LE(descent.total(), aligned.total());
}

TEST(CoordinateDescent, ChangeoverRejected) {
  const auto trace = phased(1, 2, 6, 4);
  const auto machine = MachineSpec::uniform_local(2, 4);
  EvalOptions options;
  options.changeover = true;
  EXPECT_THROW(solve_coordinate_descent(SolveInstance(trace, machine, options)),
               PreconditionError);
}

TEST(CoordinateDescent, ReportedCostMatchesReEvaluation) {
  const auto trace = phased(6, 3, 18, 6);
  const auto machine = MachineSpec::uniform_local(3, 6);
  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                      false};
  const auto descent =
      solve_coordinate_descent(SolveInstance(trace, machine, options));
  EXPECT_EQ(
      descent.total(),
      evaluate_fully_sync_switch(trace, machine, descent.schedule, options)
          .total);
}

TEST(CoordinateDescent, DeterministicAcrossRuns) {
  const auto trace = phased(8, 3, 16, 6);
  const auto machine = MachineSpec::uniform_local(3, 6);
  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                      false};
  const auto a =
      solve_coordinate_descent(SolveInstance(trace, machine, options));
  const auto b =
      solve_coordinate_descent(SolveInstance(trace, machine, options));
  EXPECT_EQ(a.total(), b.total());
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(a.schedule.tasks[j].starts(), b.schedule.tasks[j].starts());
  }
}

}  // namespace
}  // namespace hyperrec
