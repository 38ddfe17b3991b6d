#include "core/genetic.hpp"

#include <gtest/gtest.h>

#include "core/exhaustive.hpp"
#include "testutil/trace_builders.hpp"

namespace hyperrec {
namespace {

MultiTaskTrace phased(std::uint64_t seed, std::size_t tasks, std::size_t steps,
                      std::size_t universe) {
  return testutil::phased_multi(seed, tasks, steps, universe, /*phases=*/2);
}

GaConfig small_ga(std::uint64_t seed) {
  GaConfig config;
  config.population = 32;
  config.generations = 60;
  config.seed = seed;
  return config;
}

TEST(Genetic, FindsOptimumOnTinyInstances) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto trace = phased(seed, 2, 6, 4);
    const auto machine = MachineSpec::uniform_local(2, 4);
    EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                        false};
    const SolveInstance instance(trace, machine, options);
    const auto exact = solve_exhaustive(instance);
    const auto ga = solve_genetic(instance, small_ga(seed));
    EXPECT_EQ(ga.best.total(), exact.total()) << "seed " << seed;
  }
}

TEST(Genetic, DeterministicForSeed) {
  const auto trace = phased(7, 3, 15, 6);
  const auto machine = MachineSpec::uniform_local(3, 6);
  const auto a = solve_genetic(SolveInstance(trace, machine), small_ga(42));
  const auto b = solve_genetic(SolveInstance(trace, machine), small_ga(42));
  EXPECT_EQ(a.best.total(), b.best.total());
  EXPECT_EQ(a.history, b.history);
}

TEST(Genetic, ParallelAndSerialFitnessAgree) {
  const auto trace = phased(9, 2, 12, 5);
  const auto machine = MachineSpec::uniform_local(2, 5);
  GaConfig serial = small_ga(5);
  serial.parallel_fitness = false;
  GaConfig parallel = small_ga(5);
  parallel.parallel_fitness = true;
  const auto a = solve_genetic(SolveInstance(trace, machine), serial);
  const auto b = solve_genetic(SolveInstance(trace, machine), parallel);
  EXPECT_EQ(a.best.total(), b.best.total())
      << "randomness lives outside the parallel section";
}

TEST(Genetic, HistoryIsMonotoneNonIncreasing) {
  const auto trace = phased(11, 3, 20, 6);
  const auto machine = MachineSpec::uniform_local(3, 6);
  const auto result = solve_genetic(SolveInstance(trace, machine), small_ga(3));
  for (std::size_t g = 1; g < result.history.size(); ++g) {
    EXPECT_LE(result.history[g], result.history[g - 1]);
  }
}

TEST(Genetic, BestNeverWorseThanSeededSchedules) {
  const auto trace = phased(13, 3, 18, 6);
  const auto machine = MachineSpec::uniform_local(3, 6);
  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                      false};
  const auto result =
      solve_genetic(SolveInstance(trace, machine, options), small_ga(4));
  const Cost single =
      evaluate_fully_sync_switch(trace, machine,
                                 MultiTaskSchedule::all_single(3, 18), options)
          .total;
  const Cost every = evaluate_fully_sync_switch(
                         trace, machine,
                         MultiTaskSchedule::all_every_step(3, 18), options)
                         .total;
  EXPECT_LE(result.best.total(), std::min(single, every))
      << "both schedules are in the initial population";
}

TEST(Genetic, PatienceStopsEarly) {
  const auto trace = phased(15, 2, 10, 5);
  const auto machine = MachineSpec::uniform_local(2, 5);
  GaConfig config = small_ga(6);
  config.generations = 500;
  config.patience = 5;
  const auto result = solve_genetic(SolveInstance(trace, machine), config);
  EXPECT_LT(result.history.size(), 500u) << "patience should trigger";
}

TEST(Genetic, EvaluationsAreCounted) {
  const auto trace = phased(17, 2, 8, 4);
  const auto machine = MachineSpec::uniform_local(2, 4);
  GaConfig config = small_ga(7);
  config.population = 16;
  config.generations = 10;
  const auto result = solve_genetic(SolveInstance(trace, machine), config);
  EXPECT_EQ(result.evaluations, 16u * 11u)
      << "initial population + one evaluation per generation";
}

TEST(Genetic, TooSmallPopulationRejected) {
  const auto trace = phased(1, 2, 6, 4);
  const auto machine = MachineSpec::uniform_local(2, 4);
  GaConfig config;
  config.population = 2;
  EXPECT_THROW(solve_genetic(SolveInstance(trace, machine),
                             config), PreconditionError);
}

TEST(Genetic, SupportsChangeoverObjective) {
  const auto trace = phased(19, 2, 10, 5);
  const auto machine = MachineSpec::uniform_local(2, 5);
  EvalOptions options;
  options.changeover = true;
  const auto result =
      solve_genetic(SolveInstance(trace, machine, options), small_ga(8));
  EXPECT_EQ(
      result.best.total(),
      evaluate_fully_sync_switch(trace, machine, result.best.schedule, options)
          .total);
}

}  // namespace
}  // namespace hyperrec
