#include "model/cost_switch.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "model/instance.hpp"
#include "model/trace_stats.hpp"
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
  // Both pricing paths — one pass over the trace (both public overloads,
  // which build no tables) and the instance's tables
  // (detail::evaluate_fully_sync over instance.stats()) — must match the
  // naive-rescan oracle in every CostBreakdown field (total, hyper,
  // reconfig, global_hyper, partial_hyper_steps) on seeded random
  // schedules, under all 8 upload × changeover settings, on universes that
  // straddle word boundaries.
  Xoshiro256 rng(0xC057C057ull);
  const std::size_t universes[] = {0, 63, 64, 65, 130, 1, 17, 70};
  for (const std::size_t universe : universes) {
    const std::size_t tasks = 1 + rng.uniform(3);
    const std::size_t steps = 2 + rng.uniform(14);
    const MultiTaskTrace trace =
        testutil::random_multi_trace(rng, tasks, steps, universe);
    const MachineSpec machine = MachineSpec::local_only(
        std::vector<std::size_t>(tasks, universe));
    for (const auto hyper :
         {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
      for (const auto reconfig :
           {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
        for (const bool changeover : {false, true}) {
          const EvalOptions options{hyper, reconfig, changeover};
          const SolveInstance instance(trace, machine, options);
          for (std::size_t s = 0; s < 3; ++s) {
            const MultiTaskSchedule schedule =
                testutil::random_schedule(rng, trace, machine, 0.3);
            const CostBreakdown expected =
                testutil::reference_fully_sync_breakdown(trace, machine,
                                                         schedule, options);
            expect_breakdowns_identical(
                evaluate_fully_sync_switch(instance, schedule), expected,
                "instance evaluator");
            expect_breakdowns_identical(
                evaluate_fully_sync_switch(trace, machine, schedule, options),
                expected, "trace-overload evaluator");
            expect_breakdowns_identical(
                detail::evaluate_fully_sync(trace, instance.stats(), machine,
                                            schedule, options),
                expected, "table-backed evaluator");
          }
        }
      }
    }
  }

  // A near-maximum v_j saturates (the oracle's plain sums would overflow),
  // and both paths saturate the same fields the same way.
  const MultiTaskTrace trace = testutil::random_multi_trace(rng, 3, 12, 65);
  MachineSpec machine = MachineSpec::local_only({65, 65, 65});
  for (TaskSpec& task : machine.tasks) {
    task.local_init = std::numeric_limits<Cost>::max() - 1000;
  }
  for (const bool changeover : {false, true}) {
    const EvalOptions options{UploadMode::kTaskSequential,
                              UploadMode::kTaskSequential, changeover};
    const SolveInstance instance(trace, machine, options);
    const MultiTaskSchedule schedule =
        testutil::random_schedule(rng, trace, machine, 0.5);
    const CostBreakdown one_pass =
        evaluate_fully_sync_switch(instance, schedule);
    EXPECT_EQ(one_pass.total, kCostInfinity);
    expect_breakdowns_identical(
        detail::evaluate_fully_sync(trace, instance.stats(), machine, schedule,
                                    options),
        one_pass, "table-backed evaluator, near-maximum v_j");
  }
}

/// Two tasks × 4 steps over 2 switches with the given private demands.
MultiTaskTrace demand_trace(const std::uint32_t (&demands)[2][4]) {
  MultiTaskTrace trace;
  for (const auto& row : demands) {
    TaskTrace task(2);
    for (const std::uint32_t demand : row) {
      task.push_back({DynamicBitset::from_string("10"), demand});
    }
    trace.add_task(std::move(task));
  }
  return trace;
}

TEST(FullySyncSwitch, QuotaViolationThrowsTheSameMessageOnBothPaths) {
  MachineSpec machine = MachineSpec::uniform_local(2, 2);
  machine.private_global_units = 4;
  MultiTaskSchedule two_blocks;
  two_blocks.tasks.assign(2, Partition::from_starts({0, 2}, 4));
  two_blocks.global_boundaries = {0, 2};
  MultiTaskSchedule one_block = two_blocks;
  one_block.global_boundaries = {0};

  const auto message_of = [](const auto& evaluate) -> std::string {
    try {
      (void)evaluate();
    } catch (const PreconditionError& error) {
      return error.what();
    }
    return "no error";
  };
  // Every path must throw the one-pass message, or price identically.
  const auto expect_same_outcome = [&](const MultiTaskTrace& trace,
                                       const MultiTaskSchedule& schedule,
                                       bool throws, const char* label) {
    const SolveInstance instance(trace, machine);
    const std::string one_pass = message_of(
        [&] { return evaluate_fully_sync_switch(instance, schedule); });
    EXPECT_EQ(one_pass.find("exceeds the unit pool within a global block") !=
                  std::string::npos,
              throws)
        << label << ": " << one_pass;
    EXPECT_EQ(message_of([&] {
                return evaluate_fully_sync_switch(trace, machine, schedule,
                                                  {});
              }),
              one_pass)
        << label;
    EXPECT_EQ(message_of([&] {
                return detail::evaluate_fully_sync(trace, instance.stats(),
                                                   machine, schedule, {});
              }),
              one_pass)
        << label;
    if (!throws) {
      expect_breakdowns_identical(
          evaluate_fully_sync_switch(instance, schedule),
          detail::evaluate_fully_sync(trace, instance.stats(), machine,
                                      schedule, {}),
          label);
    }
  };

  // The second block's quotas (3 + 2) exceed the pool while no single
  // step's demand sum does (3 + 0, 0 + 2), so the table path cannot
  // short-circuit on the per-step sums.
  const MultiTaskTrace over = demand_trace({{1, 1, 3, 0}, {1, 1, 0, 2}});
  expect_same_outcome(over, two_blocks, true, "second block over the pool");

  // Peaks in different blocks (3 + 0, then 0 + 3) fit block by block, but
  // not as one block (3 + 3): each interval's peak counts in its own block.
  const MultiTaskTrace apart = demand_trace({{3, 0, 0, 0}, {0, 0, 0, 3}});
  expect_same_outcome(apart, two_blocks, false, "peaks in separate blocks");
  expect_same_outcome(apart, one_block, true, "peaks in one block");
}

TEST(AsyncSwitch, OnePassAgreesWithTablesOnUnequalTaskLengths) {
  // The §4.1 evaluator prices each task in one pass over its own steps;
  // per task it must equal the sum priced from that task's interval tables,
  // with private demands, changeover and lengths that differ per task.
  Xoshiro256 rng(0xA51C0FFEEull);
  for (std::size_t round = 0; round < 12; ++round) {
    const std::size_t tasks = 1 + rng.uniform(3);
    MultiTaskTrace trace;
    std::vector<std::size_t> universes;
    MultiTaskSchedule schedule;
    std::uint64_t pool = 0;
    for (std::size_t j = 0; j < tasks; ++j) {
      const std::size_t universe = 1 + rng.uniform(80);
      const std::size_t steps = 1 + rng.uniform(20);
      TaskTrace task(universe);
      std::uint32_t peak = 0;
      for (std::size_t i = 0; i < steps; ++i) {
        const auto demand = static_cast<std::uint32_t>(rng.uniform(4));
        peak = std::max(peak, demand);
        task.push_back({testutil::random_requirement(rng, universe), demand});
      }
      pool += peak;
      DynamicBitset mask(steps);
      mask.set(0);
      for (std::size_t i = 1; i < steps; ++i) {
        if (rng.flip(0.3)) mask.set(i);
      }
      schedule.tasks.push_back(Partition::from_boundary_mask(mask));
      universes.push_back(universe);
      trace.add_task(std::move(task));
    }
    MachineSpec machine = MachineSpec::local_only(universes);
    machine.private_global_units = pool;
    machine.global_init = 5;
    if (machine.has_global_resources()) schedule.global_boundaries = {0};

    for (const bool changeover : {false, true}) {
      const EvalOptions options{UploadMode::kTaskParallel,
                                UploadMode::kTaskSequential, changeover};
      const AsyncCostBreakdown actual =
          evaluate_async_switch(trace, machine, schedule, options);
      ASSERT_EQ(actual.per_task.size(), tasks);
      Cost slowest = 0;
      for (std::size_t j = 0; j < tasks; ++j) {
        const TaskTraceStats tables(trace.task(j));
        const Partition& partition = schedule.tasks[j];
        Cost expected = 0;
        for (std::size_t k = 0; k < partition.interval_count(); ++k) {
          const auto [lo, hi] = partition.interval_bounds(k);
          Cost hyper = machine.tasks[j].local_init;
          if (changeover) {
            const DynamicBitset current = tables.local_union(lo, hi);
            hyper += static_cast<Cost>(
                k == 0 ? current.count()
                       : current.symmetric_difference_count(tables.local_union(
                             partition.interval_bounds(k - 1).first, lo)));
          }
          const Cost size =
              static_cast<Cost>(tables.local_union_count(lo, hi)) +
              static_cast<Cost>(tables.max_private_demand(lo, hi));
          expected += hyper + size * static_cast<Cost>(hi - lo);
        }
        EXPECT_EQ(actual.per_task[j], expected) << "round " << round;
        slowest = std::max(slowest, expected);
      }
      const Cost global = machine.has_global_resources() ? 5 : 0;
      EXPECT_EQ(actual.global_hyper, global);
      EXPECT_EQ(actual.total, global + slowest);
      EXPECT_EQ(evaluate_async_switch(SolveInstance(trace, machine, options),
                                      schedule)
                    .per_task,
                actual.per_task);
    }

    // One unit short of the peaks' sum is rejected.
    if (pool > 1) {
      machine.private_global_units = pool - 1;
      EXPECT_THROW(
          (void)evaluate_async_switch(trace, machine, schedule, {}),
          PreconditionError);
    }
  }
}

}  // namespace
}  // namespace hyperrec
