// Cross-model consistency checks between independent implementations.
#include <gtest/gtest.h>

#include "core/aligned_dp.hpp"
#include "core/coordinate_descent.hpp"
#include "core/exhaustive.hpp"
#include "core/general_dp.hpp"
#include "core/interval_dp.hpp"
#include "model/cost_switch.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace hyperrec {
namespace {

TEST(CrossCheck, SingleTaskDpEqualsExhaustiveSolver) {
  Xoshiro256 rng(1);
  for (int round = 0; round < 10; ++round) {
    workload::PhasedConfig config;
    config.steps = 9;
    config.universe = 5;
    config.phases = 2;
    Xoshiro256 gen = rng.split(round);
    MultiTaskTrace trace;
    trace.add_task(workload::make_phased(config, gen));
    const auto machine = MachineSpec::local_only({5});

    const auto dp = solve_single_task_switch(trace.task(0), 5);
    const auto exhaustive = solve_exhaustive(SolveInstance(trace, machine));
    EXPECT_EQ(dp.total, exhaustive.total()) << "round " << round;
  }
}

TEST(CrossCheck, GeneralDpReproducesSwitchDpOnEncodedModel) {
  // Encode a switch-model instance as an explicit general model: one
  // hypercontext per distinct interval union is overkill, so use all 2^5
  // subsets; init = v, cost = |subset|; satisfies = superset.
  Xoshiro256 rng(17);
  const std::size_t universe = 5;
  const Cost v = 4;
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = 3 + rng.uniform(6);
    TaskTrace trace(universe);
    std::vector<std::uint32_t> masks;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t mask = 0;
      DynamicBitset req(universe);
      for (std::size_t s = 0; s < universe; ++s) {
        if (rng.flip(0.4)) {
          req.set(s);
          mask |= 1u << s;
        }
      }
      trace.push_back_local(std::move(req));
      masks.push_back(mask);
    }

    GeneralCostModel model(32, n);
    for (std::size_t h = 0; h < 32; ++h) {
      model.set_init(h, v);
      model.set_cost(
          h, static_cast<Cost>(std::popcount(static_cast<unsigned>(h))));
      for (std::size_t i = 0; i < n; ++i) {
        if ((masks[i] & ~static_cast<std::uint32_t>(h)) == 0) {
          model.set_satisfies(h, i);
        }
      }
    }
    std::vector<std::size_t> sequence(n);
    for (std::size_t i = 0; i < n; ++i) sequence[i] = i;

    EXPECT_EQ(solve_general_dp(model, sequence).total,
              solve_single_task_switch(trace, v).total)
        << "round " << round;
  }
}

TEST(CrossCheck, AlignedDpIsUpperBoundForCoordinateDescent) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    workload::MultiPhasedConfig config;
    config.tasks = 4;
    config.task_config.steps = 30;
    config.task_config.universe = 10;
    const auto trace = workload::make_multi_phased(config, seed);
    const auto machine = MachineSpec::uniform_local(4, 10);
    EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                        false};
    const SolveInstance instance(trace, machine, options);
    EXPECT_LE(solve_coordinate_descent(instance).total(),
              solve_aligned_dp(instance).total())
        << "seed " << seed;
  }
}

TEST(CrossCheck, UploadDisciplinesOrderCosts) {
  // For any fixed schedule: max-combining (parallel) ≤ sum-combining
  // (sequential) in both positions.
  workload::MultiPhasedConfig config;
  config.tasks = 3;
  config.task_config.steps = 20;
  config.task_config.universe = 8;
  const auto trace = workload::make_multi_phased(config, 5);
  const auto machine = MachineSpec::uniform_local(3, 8);
  const auto schedule =
      solve_aligned_dp(SolveInstance(trace, machine)).schedule;

  const Cost pp = evaluate_fully_sync_switch(
                      trace, machine, schedule,
                      {UploadMode::kTaskParallel, UploadMode::kTaskParallel,
                       false})
                      .total;
  const Cost ps = evaluate_fully_sync_switch(
                      trace, machine, schedule,
                      {UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                       false})
                      .total;
  const Cost ss = evaluate_fully_sync_switch(
                      trace, machine, schedule,
                      {UploadMode::kTaskSequential,
                       UploadMode::kTaskSequential, false})
                      .total;
  EXPECT_LE(pp, ps);
  EXPECT_LE(ps, ss);
}

TEST(CrossCheck, AsyncNeverExceedsFullySyncSequential) {
  // Asynchronous execution overlaps the tasks' reconfiguration work, so the
  // machine-level max-of-sums is at most the fully synchronised sum-of-sums
  // for the same schedule (with sequential hyper upload matching §4.1's
  // per-task v_j accounting).
  workload::MultiPhasedConfig config;
  config.tasks = 3;
  config.task_config.steps = 15;
  config.task_config.universe = 6;
  const auto trace = workload::make_multi_phased(config, 9);
  const auto machine = MachineSpec::uniform_local(3, 6);
  const auto schedule =
      solve_aligned_dp(SolveInstance(trace, machine)).schedule;

  const Cost async = evaluate_async_switch(trace, machine, schedule, {}).total;
  const Cost sync =
      evaluate_fully_sync_switch(trace, machine, schedule,
                                 {UploadMode::kTaskSequential,
                                  UploadMode::kTaskSequential, false})
          .total;
  EXPECT_LE(async, sync);
}

}  // namespace
}  // namespace hyperrec
