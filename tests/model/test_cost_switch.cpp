#include "model/cost_switch.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "model/instance.hpp"
#include "support/cost_math.hpp"
#include "testutil/reference_eval.hpp"
#include "testutil/trace_builders.hpp"

namespace hyperrec {
namespace {

/// Two tasks over 4-switch universes, three synchronized steps.
///   task 0: {s0}, {s1}, {s1}
///   task 1: {s2,s3}, {s2,s3}, {}
MultiTaskTrace small_trace() {
  return MultiTaskTrace::from_local(
      {4, 4},
      {{DynamicBitset::from_string("1000"), DynamicBitset::from_string("0100"),
        DynamicBitset::from_string("0100")},
       {DynamicBitset::from_string("0011"), DynamicBitset::from_string("0011"),
        DynamicBitset::from_string("0000")}});
}

MachineSpec small_machine() { return MachineSpec::local_only({4, 4}); }

TEST(DeriveLocalHypercontexts, MinimalUnionsPerInterval) {
  const auto trace = small_trace();
  MultiTaskSchedule schedule;
  schedule.tasks.push_back(Partition::from_starts({0, 1}, 3));
  schedule.tasks.push_back(Partition::single(3));
  const auto contexts = derive_local_hypercontexts(trace, schedule);
  ASSERT_EQ(contexts.size(), 2u);
  ASSERT_EQ(contexts[0].size(), 2u);
  EXPECT_EQ(contexts[0][0].local.to_string(), "1000");
  EXPECT_EQ(contexts[0][1].local.to_string(), "0100");
  ASSERT_EQ(contexts[1].size(), 1u);
  EXPECT_EQ(contexts[1][0].local.to_string(), "0011");
}

TEST(FullySyncSwitch, SingleIntervalHandComputedParallelParallel) {
  const auto trace = small_trace();
  const auto machine = small_machine();
  const auto schedule = MultiTaskSchedule::all_single(2, 3);
  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskParallel,
                      false};
  const auto breakdown =
      evaluate_fully_sync_switch(trace, machine, schedule, options);
  // Hypercontexts: t0 = {s0,s1} (2), t1 = {s2,s3} (2).
  // Step 0: hyper max(4,4)=4; every step reconfig max(2,2)=2.
  EXPECT_EQ(breakdown.hyper, 4);
  EXPECT_EQ(breakdown.reconfig, 6);
  EXPECT_EQ(breakdown.total, 10);
  EXPECT_EQ(breakdown.partial_hyper_steps, 1u);
  // The one boundary step (step 0) pays the whole hyper term; each of the
  // 3 steps pays the same reconfig max(2,2) = 2.
  EXPECT_EQ(breakdown.hyper,
            4 * static_cast<Cost>(breakdown.partial_hyper_steps));
  EXPECT_EQ(breakdown.reconfig, 2 * 3);
}

TEST(FullySyncSwitch, SingleIntervalHandComputedSequentialUploads) {
  const auto trace = small_trace();
  const auto machine = small_machine();
  const auto schedule = MultiTaskSchedule::all_single(2, 3);
  EvalOptions options{UploadMode::kTaskSequential, UploadMode::kTaskSequential,
                      false};
  const auto breakdown =
      evaluate_fully_sync_switch(trace, machine, schedule, options);
  // Step 0: hyper 4+4=8; every step reconfig 2+2=4.
  EXPECT_EQ(breakdown.hyper, 8);
  EXPECT_EQ(breakdown.reconfig, 12);
  EXPECT_EQ(breakdown.total, 20);
}

TEST(FullySyncSwitch, PerTaskBoundariesHandComputed) {
  const auto trace = small_trace();
  const auto machine = small_machine();
  MultiTaskSchedule schedule;
  schedule.tasks.push_back(Partition::from_starts({0, 1}, 3));
  schedule.tasks.push_back(Partition::single(3));
  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                      false};
  const auto breakdown =
      evaluate_fully_sync_switch(trace, machine, schedule, options);
  // t0 intervals: {s0} (1), {s1} (1); t1: {s2,s3} (2).
  // Hyper: step 0 max(4,4)=4; step 1 only t0: 4.  Total 8.
  // Reconfig (sequential): per step 1+2=3.  Total 9.
  EXPECT_EQ(breakdown.hyper, 8);
  EXPECT_EQ(breakdown.reconfig, 9);
  EXPECT_EQ(breakdown.total, 17);
  EXPECT_EQ(breakdown.partial_hyper_steps, 2u);
}

TEST(FullySyncSwitch, EveryStepScheduleMatchesPerStepRequirements) {
  const auto trace = small_trace();
  const auto machine = small_machine();
  const auto schedule = MultiTaskSchedule::all_every_step(2, 3);
  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskParallel,
                      false};
  const auto breakdown =
      evaluate_fully_sync_switch(trace, machine, schedule, options);
  // Hyper: max(4,4)=4 at every step → 12.
  // Reconfig: max(|c0|,|c1|) = max(1,2), max(1,2), max(1,0) → 2+2+1 = 5.
  EXPECT_EQ(breakdown.hyper, 12);
  EXPECT_EQ(breakdown.reconfig, 5);
  EXPECT_EQ(breakdown.partial_hyper_steps, 3u);
}

TEST(FullySyncSwitch, ChangeoverAddsSymmetricDifferences) {
  const auto trace = small_trace();
  const auto machine = small_machine();
  MultiTaskSchedule schedule;
  schedule.tasks.push_back(Partition::from_starts({0, 1}, 3));
  schedule.tasks.push_back(Partition::single(3));
  EvalOptions options{UploadMode::kTaskSequential, UploadMode::kTaskSequential,
                      true};
  const auto breakdown =
      evaluate_fully_sync_switch(trace, machine, schedule, options);
  // Changeover: t0 step0: |{s0}|=1; t0 step1: |{s0}Δ{s1}|=2; t1 step0:
  // |{s2,s3}|=2.  Hyper = (4+1) + (4+2) [t0] + (4+2) [t1 at step 0] = 17.
  EXPECT_EQ(breakdown.hyper, 17);
  EXPECT_EQ(breakdown.reconfig, 9);
}

TEST(FullySyncSwitch, UnsynchronizedTraceRejected) {
  MultiTaskTrace trace;
  TaskTrace t0(2);
  t0.push_back_local(DynamicBitset(2));
  TaskTrace t1(2);
  t1.push_back_local(DynamicBitset(2));
  t1.push_back_local(DynamicBitset(2));
  trace.add_task(std::move(t0));
  trace.add_task(std::move(t1));
  const auto machine = MachineSpec::uniform_local(2, 2);
  const auto schedule = MultiTaskSchedule::all_single(2, 1);
  EXPECT_THROW((void)evaluate_fully_sync_switch(trace, machine, schedule, {}),
               PreconditionError);
}

TEST(FullySyncSwitch, GlobalBoundariesForbiddenWithoutGlobalResources) {
  const auto trace = small_trace();
  const auto machine = small_machine();
  auto schedule = MultiTaskSchedule::all_single(2, 3);
  schedule.global_boundaries = {0};
  EXPECT_THROW((void)evaluate_fully_sync_switch(trace, machine, schedule, {}),
               PreconditionError);
}

TEST(FullySyncSwitch, GlobalResourcesRequireInitialGlobalBoundary) {
  const auto trace = small_trace();
  auto machine = small_machine();
  machine.public_context_size = 2;
  machine.global_init = 10;
  const auto schedule = MultiTaskSchedule::all_single(2, 3);  // no globals
  EXPECT_THROW((void)evaluate_fully_sync_switch(trace, machine, schedule, {}),
               PreconditionError);
}

TEST(FullySyncSwitch, PublicContextEntersReconfigCombine) {
  const auto trace = small_trace();
  auto machine = small_machine();
  machine.public_context_size = 5;
  machine.global_init = 10;
  auto schedule = MultiTaskSchedule::all_single(2, 3);
  schedule.global_boundaries = {0};

  EvalOptions parallel{UploadMode::kTaskParallel, UploadMode::kTaskParallel,
                       false};
  const auto par =
      evaluate_fully_sync_switch(trace, machine, schedule, parallel);
  // Reconfig per step: max(|h^pub|=5, 2, 2) = 5 → 15.  w = 10 once.
  EXPECT_EQ(par.reconfig, 15);
  EXPECT_EQ(par.global_hyper, 10);
  EXPECT_EQ(par.total, 4 + 15 + 10);

  EvalOptions sequential{UploadMode::kTaskParallel,
                         UploadMode::kTaskSequential, false};
  const auto seq =
      evaluate_fully_sync_switch(trace, machine, schedule, sequential);
  // Reconfig per step: 5 + 2 + 2 = 9 → 27.
  EXPECT_EQ(seq.reconfig, 27);
}

TEST(FullySyncSwitch, PrivateDemandAddsToReconfigAndChecksPool) {
  MultiTaskTrace trace;
  TaskTrace t0(2);
  t0.push_back({DynamicBitset::from_string("10"), 2});
  t0.push_back({DynamicBitset::from_string("10"), 1});
  TaskTrace t1(2);
  t1.push_back({DynamicBitset::from_string("01"), 1});
  t1.push_back({DynamicBitset::from_string("01"), 3});
  trace.add_task(std::move(t0));
  trace.add_task(std::move(t1));

  MachineSpec machine = MachineSpec::uniform_local(2, 2);
  machine.private_global_units = 5;
  machine.global_init = 7;
  auto schedule = MultiTaskSchedule::all_single(2, 2);
  schedule.global_boundaries = {0};

  EvalOptions options{UploadMode::kTaskParallel, UploadMode::kTaskSequential,
                      false};
  const auto breakdown =
      evaluate_fully_sync_switch(trace, machine, schedule, options);
  // h0 = {s0} + priv max 2 → size 3; h1 = {s1} + priv max 3 → size 4.
  // Reconfig per step: 3 + 4 = 7 → 14.  Global w = 7.
  EXPECT_EQ(breakdown.reconfig, 14);
  EXPECT_EQ(breakdown.global_hyper, 7);

  machine.private_global_units = 4;  // quotas 2 + 3 no longer fit
  EXPECT_THROW(
      (void)evaluate_fully_sync_switch(trace, machine, schedule, options),
      PreconditionError);
}

TEST(FullySyncSwitch, TotalsSaturateInsteadOfWrapping) {
  // Both tasks hyperreconfigure at steps 0 and 1 under task-sequential
  // upload, each at v = max − 1000: plain sums would wrap to a negative
  // total, so they saturate at the sentinel, as the DPs do.
  const auto trace = small_trace();
  MachineSpec machine = small_machine();
  for (TaskSpec& task : machine.tasks) {
    task.local_init = std::numeric_limits<Cost>::max() - 1000;
  }
  MultiTaskSchedule schedule;
  schedule.tasks.assign(2, Partition::from_starts({0, 1}, 3));
  const EvalOptions options{UploadMode::kTaskSequential,
                            UploadMode::kTaskSequential, false};
  const auto breakdown =
      evaluate_fully_sync_switch(trace, machine, schedule, options);
  EXPECT_EQ(breakdown.hyper, kCostInfinity);
  EXPECT_EQ(breakdown.total, kCostInfinity);
  EXPECT_EQ(
      evaluate_fully_sync_switch(SolveInstance(trace, machine, options),
                                 schedule)
          .total,
      kCostInfinity);
  // The reconfiguration sum stays exact: t0 {s0} then {s1}, t1 {s2,s3}
  // twice → 1 + 2 at step 0, 1 + 2 at each of steps 1 and 2.
  EXPECT_EQ(breakdown.reconfig, 9);
}

TEST(NoHyperBaseline, IsStepsTimesTotalSwitches) {
  const auto machine = MachineSpec::local_only({8, 8, 8, 24});
  EXPECT_EQ(no_hyperreconfiguration_cost(machine, 110), 5280);
}

TEST(AsyncSwitch, MaxOverPerTaskTotals) {
  // Task 0: 2 steps of {s0}; task 1: 1 step of {s1,s2} — lengths differ.
  MultiTaskTrace trace;
  TaskTrace t0(3);
  t0.push_back_local(DynamicBitset::from_string("100"));
  t0.push_back_local(DynamicBitset::from_string("100"));
  TaskTrace t1(3);
  t1.push_back_local(DynamicBitset::from_string("011"));
  trace.add_task(std::move(t0));
  trace.add_task(std::move(t1));

  const auto machine = MachineSpec::uniform_local(2, 3);
  MultiTaskSchedule schedule;
  schedule.tasks.push_back(Partition::single(2));
  schedule.tasks.push_back(Partition::single(1));

  const auto breakdown = evaluate_async_switch(trace, machine, schedule, {});
  // Task 0: v=3 + |{s0}|·2 = 5.  Task 1: 3 + 2·1 = 5.
  EXPECT_EQ(breakdown.per_task[0], 5);
  EXPECT_EQ(breakdown.per_task[1], 5);
  EXPECT_EQ(breakdown.total, 5);
}

TEST(AsyncSwitch, TotalsSaturateInsteadOfWrapping) {
  // Two intervals per task at v = max − 1000: the per-task sums saturate
  // at the sentinel, as the §4.2 evaluator's do on the same schedule.
  MultiTaskTrace trace;
  for (std::size_t j = 0; j < 2; ++j) {
    TaskTrace task(4);
    for (std::size_t i = 0; i < 6; ++i) {
      task.push_back_local(DynamicBitset::from_string(i < 3 ? "1100" : "0011"));
    }
    trace.add_task(std::move(task));
  }
  MachineSpec machine = MachineSpec::uniform_local(2, 4);
  for (TaskSpec& task : machine.tasks) {
    task.local_init = std::numeric_limits<Cost>::max() - 1000;
  }
  MultiTaskSchedule schedule;
  schedule.tasks.assign(2, Partition::from_starts({0, 3}, 6));

  const auto breakdown = evaluate_async_switch(trace, machine, schedule, {});
  EXPECT_EQ(breakdown.per_task[0], kCostInfinity);
  EXPECT_EQ(breakdown.per_task[1], kCostInfinity);
  EXPECT_EQ(breakdown.total, kCostInfinity);
  EXPECT_EQ(
      evaluate_async_switch(SolveInstance(trace, machine), schedule).total,
      kCostInfinity);
  EXPECT_EQ(evaluate_fully_sync_switch(trace, machine, schedule, {}).total,
            kCostInfinity);
}

TEST(AsyncSwitch, PublicResourcesRejected) {
  const auto trace = small_trace();
  auto machine = small_machine();
  machine.public_context_size = 1;
  const auto schedule = MultiTaskSchedule::all_single(2, 3);
  EXPECT_THROW(evaluate_async_switch(trace, machine, schedule, {}),
               PreconditionError);
}

TEST(AsyncSwitch, SlowestTaskDominates) {
  MultiTaskTrace trace;
  TaskTrace t0(4);
  for (int i = 0; i < 5; ++i)
    t0.push_back_local(DynamicBitset::from_string("1111"));
  TaskTrace t1(4);
  t1.push_back_local(DynamicBitset::from_string("1000"));
  trace.add_task(std::move(t0));
  trace.add_task(std::move(t1));
  const auto machine = MachineSpec::uniform_local(2, 4);
  MultiTaskSchedule schedule;
  schedule.tasks.push_back(Partition::single(5));
  schedule.tasks.push_back(Partition::single(1));
  const auto breakdown = evaluate_async_switch(trace, machine, schedule, {});
  EXPECT_EQ(breakdown.per_task[0], 4 + 4 * 5);
  EXPECT_EQ(breakdown.total, 24);
}

TEST(EvaluateSwitchTotal, DispatcherMatchesDirectCalls) {
  const auto trace = small_trace();
  const auto machine = small_machine();
  const auto schedule = MultiTaskSchedule::all_single(2, 3);
  EvalOptions options{UploadMode::kTaskSequential, UploadMode::kTaskSequential,
                      false};

  EXPECT_EQ(
      evaluate_switch_total(SyncMode::kFullySynchronized, trace, machine,
                            schedule, options),
      evaluate_fully_sync_switch(trace, machine, schedule, options).total);

  // Hypercontext-sync forces task-parallel reconfiguration upload.
  EvalOptions hyper_sync = options;
  hyper_sync.reconfig_upload = UploadMode::kTaskParallel;
  EXPECT_EQ(
      evaluate_switch_total(SyncMode::kHypercontextSynchronized, trace,
                            machine, schedule, options),
      evaluate_fully_sync_switch(trace, machine, schedule, hyper_sync).total);

  // Context-sync forces task-parallel hyperreconfiguration upload.
  EvalOptions ctx_sync = options;
  ctx_sync.hyper_upload = UploadMode::kTaskParallel;
  EXPECT_EQ(
      evaluate_switch_total(SyncMode::kContextSynchronized, trace, machine,
                            schedule, options),
      evaluate_fully_sync_switch(trace, machine, schedule, ctx_sync).total);

  EXPECT_EQ(evaluate_switch_total(SyncMode::kNonSynchronized, trace, machine,
                                  schedule, options),
            evaluate_async_switch(trace, machine, schedule, options).total);
}

void expect_breakdowns_identical(const CostBreakdown& actual,
                                 const CostBreakdown& expected,
                                 const char* label) {
  EXPECT_EQ(actual.total, expected.total) << label;
  EXPECT_EQ(actual.hyper, expected.hyper) << label;
  EXPECT_EQ(actual.reconfig, expected.reconfig) << label;
  EXPECT_EQ(actual.global_hyper, expected.global_hyper) << label;
  EXPECT_EQ(actual.partial_hyper_steps, expected.partial_hyper_steps) << label;
}

TEST(FullySyncSwitch, StatsBackedEvaluatorIsBitIdenticalToNaiveOracle) {
  // Regression gate for the SolveInstance re-plumb: the evaluator now
  // queries precomputed interval tables instead of rescanning the trace per
  // boundary interval; on seeded random schedules every CostBreakdown field
  // (total, hyper, reconfig, global_hyper, partial_hyper_steps) must match
  // the naive-rescan oracle exactly, for both upload-combine settings and
  // with changeover on.
  Xoshiro256 rng(0xC057C057ull);
  const EvalOptions grids[] = {
      {UploadMode::kTaskParallel, UploadMode::kTaskSequential, false},
      {UploadMode::kTaskSequential, UploadMode::kTaskParallel, false},
      {UploadMode::kTaskParallel, UploadMode::kTaskSequential, true},
  };
  for (std::size_t round = 0; round < 12; ++round) {
    const std::size_t tasks = 1 + rng.uniform(3);
    const std::size_t steps = 2 + rng.uniform(14);
    const std::size_t universe = 1 + rng.uniform(70);
    const MultiTaskTrace trace =
        testutil::random_multi_trace(rng, tasks, steps, universe);
    const MachineSpec machine = MachineSpec::local_only(
        std::vector<std::size_t>(tasks, universe));
    for (const EvalOptions& options : grids) {
      const SolveInstance instance(trace, machine, options);
      for (std::size_t s = 0; s < 4; ++s) {
        const MultiTaskSchedule schedule =
            testutil::random_schedule(rng, trace, machine, 0.3);
        const CostBreakdown expected =
            testutil::reference_fully_sync_breakdown(trace, machine, schedule,
                                                     options);
        expect_breakdowns_identical(
            evaluate_fully_sync_switch(instance, schedule), expected,
            "instance evaluator");
        expect_breakdowns_identical(
            evaluate_fully_sync_switch(trace, machine, schedule, options),
            expected, "trace-overload evaluator");
      }
    }
  }
}

}  // namespace
}  // namespace hyperrec
