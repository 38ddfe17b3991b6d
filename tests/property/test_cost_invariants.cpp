// Structural invariants of the §4.2 cost model that must hold for every
// schedule on every trace (parameterized random sweeps).
#include <gtest/gtest.h>

#include "model/cost_switch.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace hyperrec {
namespace {

MultiTaskSchedule random_schedule(std::size_t m, std::size_t n,
                                  double density, Xoshiro256& rng) {
  MultiTaskSchedule schedule;
  for (std::size_t j = 0; j < m; ++j) {
    DynamicBitset mask(n);
    mask.set(0);
    for (std::size_t s = 1; s < n; ++s) {
      if (rng.flip(density)) mask.set(s);
    }
    schedule.tasks.push_back(Partition::from_boundary_mask(mask));
  }
  return schedule;
}

class CostInvariants : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    workload::MultiPhasedConfig config;
    config.tasks = 3;
    config.task_config.steps = 25;
    config.task_config.universe = 9;
    trace_ = workload::make_multi_phased(config, GetParam());
    machine_ = MachineSpec::uniform_local(3, 9);
    rng_ = Xoshiro256(GetParam() * 977);
  }

  MultiTaskTrace trace_;
  MachineSpec machine_;
  Xoshiro256 rng_{0};
};

TEST_P(CostInvariants, TotalDecomposesIntoParts) {
  for (int round = 0; round < 5; ++round) {
    const auto schedule = random_schedule(3, 25, 0.2, rng_);
    const auto breakdown =
        evaluate_fully_sync_switch(trace_, machine_, schedule, {});
    EXPECT_EQ(breakdown.total, breakdown.hyper + breakdown.reconfig +
                                   breakdown.global_hyper);
    // Task-parallel hyper upload with v_j = 9 on every task: each step
    // with a boundary pays exactly 9.
    EXPECT_EQ(breakdown.hyper,
              9 * static_cast<Cost>(breakdown.partial_hyper_steps));
    // Task-sequential reconfig upload: every task pays its interval's
    // hypercontext size on each step of the interval.
    const auto contexts = derive_local_hypercontexts(trace_, schedule);
    Cost reconfig = 0;
    for (std::size_t j = 0; j < contexts.size(); ++j) {
      for (std::size_t k = 0; k < contexts[j].size(); ++k) {
        const auto [start, end] = schedule.tasks[j].interval_bounds(k);
        reconfig += static_cast<Cost>(contexts[j][k].local.count() +
                                      contexts[j][k].private_avail) *
                    static_cast<Cost>(end - start);
      }
    }
    EXPECT_EQ(reconfig, breakdown.reconfig);
  }
}

TEST_P(CostInvariants, ParallelUploadNeverExceedsSequential) {
  for (int round = 0; round < 5; ++round) {
    const auto schedule = random_schedule(3, 25, 0.25, rng_);
    const Cost parallel =
        evaluate_fully_sync_switch(trace_, machine_, schedule,
                                   {UploadMode::kTaskParallel,
                                    UploadMode::kTaskParallel, false})
            .total;
    const Cost sequential =
        evaluate_fully_sync_switch(trace_, machine_, schedule,
                                   {UploadMode::kTaskSequential,
                                    UploadMode::kTaskSequential, false})
            .total;
    EXPECT_LE(parallel, sequential);
  }
}

TEST_P(CostInvariants, ChangeoverOnlyIncreasesCost) {
  for (int round = 0; round < 5; ++round) {
    const auto schedule = random_schedule(3, 25, 0.2, rng_);
    EvalOptions plain;
    EvalOptions change = plain;
    change.changeover = true;
    const Cost without =
        evaluate_fully_sync_switch(trace_, machine_, schedule, plain).total;
    const Cost with =
        evaluate_fully_sync_switch(trace_, machine_, schedule, change).total;
    EXPECT_GE(with, without);
  }
}

TEST_P(CostInvariants, RefiningAScheduleNeverRaisesReconfigCost) {
  // Adding one boundary to one task can only shrink that task's interval
  // unions, so the reconfiguration component must not increase.
  for (int round = 0; round < 5; ++round) {
    const auto schedule = random_schedule(3, 25, 0.15, rng_);
    const auto base =
        evaluate_fully_sync_switch(trace_, machine_, schedule, {});

    MultiTaskSchedule refined = schedule;
    const std::size_t j = rng_.uniform(3);
    std::size_t step = 1 + rng_.uniform(24);
    DynamicBitset mask = refined.tasks[j].to_boundary_mask();
    mask.set(step);
    refined.tasks[j] = Partition::from_boundary_mask(mask);

    const auto after =
        evaluate_fully_sync_switch(trace_, machine_, refined, {});
    EXPECT_LE(after.reconfig, base.reconfig);
  }
}

TEST_P(CostInvariants, HypercontextsCoverEveryRequirement) {
  for (int round = 0; round < 5; ++round) {
    const auto schedule = random_schedule(3, 25, 0.3, rng_);
    const auto contexts = derive_local_hypercontexts(trace_, schedule);
    for (std::size_t j = 0; j < 3; ++j) {
      for (std::size_t k = 0; k < schedule.tasks[j].interval_count(); ++k) {
        const auto [lo, hi] = schedule.tasks[j].interval_bounds(k);
        for (std::size_t i = lo; i < hi; ++i) {
          EXPECT_TRUE(
              trace_.task(j).at(i).local.subset_of(contexts[j][k].local));
          EXPECT_LE(trace_.task(j).at(i).private_demand,
                    contexts[j][k].private_avail);
        }
      }
    }
  }
}

TEST_P(CostInvariants, EveryStepScheduleCostIsExactPerStepSum) {
  // With a boundary before every step, each interval is one step and the
  // reconfiguration term equals the per-step requirement combine.
  const auto schedule = MultiTaskSchedule::all_every_step(3, 25);
  const auto breakdown = evaluate_fully_sync_switch(
      trace_, machine_, schedule,
      {UploadMode::kTaskParallel, UploadMode::kTaskSequential, false});
  Cost expected = 0;
  for (std::size_t i = 0; i < 25; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      expected += static_cast<Cost>(trace_.task(j).at(i).local.count());
    }
  }
  EXPECT_EQ(breakdown.reconfig, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace hyperrec
