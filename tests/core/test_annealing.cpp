#include "core/annealing.hpp"

#include <gtest/gtest.h>

#include "core/exhaustive.hpp"
#include "testutil/trace_builders.hpp"

namespace hyperrec {
namespace {

MultiTaskTrace phased(std::uint64_t seed, std::size_t tasks, std::size_t steps,
                      std::size_t universe) {
  return testutil::phased_multi(seed, tasks, steps, universe, /*phases=*/2);
}

TEST(Annealing, DeterministicForSeed) {
  const auto trace = phased(3, 2, 12, 5);
  const auto machine = MachineSpec::uniform_local(2, 5);
  SaConfig config;
  config.iterations = 2000;
  config.seed = 77;
  const auto a = solve_annealing(SolveInstance(trace, machine), config);
  const auto b = solve_annealing(SolveInstance(trace, machine), config);
  EXPECT_EQ(a.total(), b.total());
}

TEST(Annealing, NearOptimalOnTinyInstances) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto trace = phased(seed, 2, 6, 4);
    const auto machine = MachineSpec::uniform_local(2, 4);
    EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                        false};
    const SolveInstance instance(trace, machine, options);
    const auto exact = solve_exhaustive(instance);
    SaConfig config;
    config.iterations = 5000;
    config.seed = seed;
    const auto sa = solve_annealing(instance, config);
    EXPECT_GE(sa.total(), exact.total());
    EXPECT_LE(sa.total(), exact.total() * 11 / 10) << "seed " << seed;
  }
}

TEST(Annealing, ImprovesOnSingleIntervalStart) {
  const auto trace = phased(5, 3, 25, 8);
  const auto machine = MachineSpec::uniform_local(3, 8);
  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                      false};
  const Cost start = evaluate_fully_sync_switch(
                         trace, machine, MultiTaskSchedule::all_single(3, 25),
                         options)
                         .total;
  SaConfig config;
  config.iterations = 8000;
  const auto sa =
      solve_annealing(SolveInstance(trace, machine, options), config);
  EXPECT_LE(sa.total(), start) << "best-so-far tracking cannot regress";
}

TEST(Annealing, RespectsSeedSchedule) {
  const auto trace = phased(6, 2, 10, 4);
  const auto machine = MachineSpec::uniform_local(2, 4);
  SaConfig config;
  config.iterations = 100;
  config.seed_schedule.push_back(MultiTaskSchedule::all_every_step(2, 10));
  const auto sa = solve_annealing(SolveInstance(trace, machine), config);
  EXPECT_NO_THROW(sa.schedule.validate(2, 10));
}

TEST(Annealing, ReportedCostMatchesReEvaluation) {
  const auto trace = phased(8, 3, 15, 6);
  const auto machine = MachineSpec::uniform_local(3, 6);
  EvalOptions options{UploadMode::kTaskSequential, UploadMode::kTaskSequential,
                      false};
  const auto sa = solve_annealing(SolveInstance(trace, machine, options));
  EXPECT_EQ(
      sa.total(),
      evaluate_fully_sync_switch(trace, machine, sa.schedule, options).total);
}

TEST(Annealing, SupportsChangeoverObjective) {
  const auto trace = phased(9, 2, 12, 5);
  const auto machine = MachineSpec::uniform_local(2, 5);
  EvalOptions options;
  options.changeover = true;
  SaConfig config;
  config.iterations = 3000;
  const auto sa =
      solve_annealing(SolveInstance(trace, machine, options), config);
  EXPECT_EQ(
      sa.total(),
      evaluate_fully_sync_switch(trace, machine, sa.schedule, options).total);
}

}  // namespace
}  // namespace hyperrec
