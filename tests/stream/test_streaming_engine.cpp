// StreamingEngine: published-schedule validity at every step, window
// splicing (frozen prefix + fresh suffix), failed windows that leave the
// stream as it was, pricing from the last seam under changeover, warm
// starts, cache integration, and the BatchEngine streaming-replay plumbing.
#include "streaming/streaming_engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/batch_engine.hpp"
#include "model/cost_switch.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace hyperrec::streaming {
namespace {

StreamingConfig fast_config(std::size_t window, std::size_t every_steps) {
  StreamingConfig config;
  config.window = window;
  config.trigger.every_steps = every_steps;
  config.portfolio.solvers = {"aligned-dp", "greedy-w8"};
  return config;
}

TEST(StreamingEngine, PublishedScheduleValidatesAtEveryStep) {
  const std::size_t tasks = 2;
  const std::size_t universe = 12;
  Xoshiro256 rng(0x51E);
  const MultiTaskTrace trace =
      workload::make_multi_family("phased", tasks, 30, universe, rng);
  const MachineSpec machine =
      MachineSpec::local_only(std::vector<std::size_t>(tasks, universe));

  StreamingEngine engine(machine, EvalOptions{}, fast_config(8, 5));
  for (std::size_t i = 0; i < trace.steps(); ++i) {
    engine.append_step(trace.step(i));
    ASSERT_EQ(engine.steps(), i + 1);
    ASSERT_NO_THROW(engine.schedule().validate(tasks, i + 1)) << "step " << i;
    // The published schedule must evaluate cleanly over everything seen.
    ASSERT_NO_THROW(engine.current_solution()) << "step " << i;
  }
  EXPECT_GE(engine.resolve_count(), 2u);
  EXPECT_TRUE(engine.windows().front().trigger == TriggerKind::kInitial);
  for (const WindowReport& window : engine.windows()) {
    EXPECT_TRUE(window.ok) << window.error;
    EXPECT_LE(window.window_hi - window.window_lo, 8u);
  }
}

TEST(StreamingEngine, SpliceFreezesTheStablePrefix) {
  const std::size_t universe = 10;
  Xoshiro256 rng(0xF0);
  const MultiTaskTrace trace =
      workload::make_multi_family("random-walk", 1, 24, universe, rng);
  const MachineSpec machine = MachineSpec::local_only({universe});

  StreamingEngine engine(machine, EvalOptions{}, fast_config(6, 6));
  std::vector<std::size_t> before;
  for (std::size_t i = 0; i < trace.steps(); ++i) {
    const std::size_t resolves = engine.resolve_count();
    const std::vector<std::size_t> starts =
        engine.schedule().tasks.empty()
            ? std::vector<std::size_t>{}
            : engine.schedule().tasks[0].starts();
    engine.append_step(trace.step(i));
    if (engine.resolve_count() > resolves && engine.windows().back().ok) {
      const WindowReport& report = engine.windows().back();
      // Boundaries strictly before the window must be exactly the previous
      // published boundaries below window_lo.
      std::vector<std::size_t> expected;
      for (const std::size_t s : starts) {
        if (s < report.window_lo) expected.push_back(s);
      }
      std::vector<std::size_t> frozen;
      for (const std::size_t s : engine.schedule().tasks[0].starts()) {
        if (s < report.window_lo) frozen.push_back(s);
      }
      EXPECT_EQ(frozen, expected) << "resolve " << report.index;
      EXPECT_EQ(report.splice_prefix_boundaries, expected.size());
      // ... and the window always re-anchors a boundary at window_lo.
      EXPECT_TRUE(engine.schedule().tasks[0].is_boundary(report.window_lo));
    }
  }
}

TEST(StreamingEngine, WarmStartsAfterTheInitialSolve) {
  const std::size_t universe = 8;
  Xoshiro256 rng(0x3A);
  const MultiTaskTrace trace =
      workload::make_multi_family("periodic", 1, 20, universe, rng);
  // A warm start needs a member that reads the seed (coordinate descent)
  // and an instance outside the aligned DP's exact class, where the
  // portfolio races instead of running the aligned DP alone.
  StreamingConfig config = fast_config(8, 4);
  config.portfolio.solvers = {"aligned-dp", "coord-descent"};
  EvalOptions options;
  options.hyper_upload = UploadMode::kTaskSequential;
  StreamingEngine engine(MachineSpec::local_only({universe}), options, config);
  for (std::size_t i = 0; i < trace.steps(); ++i) {
    engine.append_step(trace.step(i));
  }
  ASSERT_GE(engine.resolve_count(), 2u);
  EXPECT_FALSE(engine.windows().front().warm_started);
  for (std::size_t k = 1; k < engine.windows().size(); ++k) {
    EXPECT_TRUE(engine.windows()[k].warm_started) << "window " << k;
  }
}

TEST(StreamingEngine, FlushSolvesPendingStepsOnceAndOnlyOnce) {
  const std::size_t universe = 6;
  Xoshiro256 rng(0x11);
  const MultiTaskTrace trace =
      workload::make_multi_family("bursty", 1, 9, universe, rng);
  // No periodic trigger: only the initial solve fires during the stream.
  StreamingEngine engine(MachineSpec::local_only({universe}), EvalOptions{},
                         fast_config(16, 0));
  for (std::size_t i = 0; i < trace.steps(); ++i) {
    engine.append_step(trace.step(i));
  }
  EXPECT_EQ(engine.resolve_count(), 1u);
  EXPECT_TRUE(engine.flush());
  EXPECT_EQ(engine.resolve_count(), 2u);
  EXPECT_EQ(engine.windows().back().trigger, TriggerKind::kFlush);
  EXPECT_FALSE(engine.flush());  // nothing pending anymore
  EXPECT_EQ(engine.resolve_count(), 2u);
}

TEST(StreamingEngine, SharedCacheServesRepeatedWindowsAcrossStreams) {
  const std::size_t universe = 10;
  Xoshiro256 rng(0xCAC);
  const MultiTaskTrace trace =
      workload::make_multi_family("phased", 2, 16, universe, rng);
  const MachineSpec machine =
      MachineSpec::local_only(std::vector<std::size_t>(2, universe));

  auto cache = std::make_shared<cache::SolveCache>(
      cache::SolveCacheConfig{.capacity = 256});
  auto run_stream = [&]() {
    StreamingConfig config = fast_config(8, 4);
    config.cache = cache;
    StreamingEngine engine(machine, EvalOptions{}, config);
    for (std::size_t i = 0; i < trace.steps(); ++i) {
      engine.append_step(trace.step(i));
    }
    return engine;
  };

  const StreamingEngine first = run_stream();
  const std::uint64_t misses_after_first = cache->stats().misses;
  EXPECT_GT(misses_after_first, 0u);

  const StreamingEngine second = run_stream();
  // The identical replay hits every window in the cache.
  EXPECT_EQ(cache->stats().misses, misses_after_first);
  EXPECT_GT(cache->stats().hits, 0u);
  ASSERT_EQ(second.resolve_count(), first.resolve_count());
  for (std::size_t k = 0; k < second.windows().size(); ++k) {
    // Attribution: a verified hit reports winner "cache" AND outcome kHit;
    // "cache" must never stand in for a coalesced wait (that is a distinct
    // outcome with its own winner label) or a fresh solve.
    EXPECT_EQ(second.windows()[k].winner, "cache") << "window " << k;
    ASSERT_TRUE(second.windows()[k].cache.has_value()) << "window " << k;
    EXPECT_EQ(*second.windows()[k].cache, cache::CacheOutcome::kHit)
        << "window " << k;
    EXPECT_EQ(second.windows()[k].published_cost,
              first.windows()[k].published_cost);
  }
  // The first stream solved fresh: its windows are misses won by a real
  // portfolio member, never mislabelled "cache".
  for (std::size_t k = 0; k < first.windows().size(); ++k) {
    ASSERT_TRUE(first.windows()[k].cache.has_value()) << "window " << k;
    EXPECT_EQ(*first.windows()[k].cache, cache::CacheOutcome::kMiss)
        << "window " << k;
    EXPECT_NE(first.windows()[k].winner, "cache") << "window " << k;
    EXPECT_NE(first.windows()[k].winner, "coalesced") << "window " << k;
    EXPECT_FALSE(first.windows()[k].winner.empty()) << "window " << k;
  }
  EXPECT_EQ(second.current_solution().total(),
            first.current_solution().total());
}

TEST(StreamingEngine, RejectsBadStepsAndConfigs) {
  const MachineSpec machine = MachineSpec::local_only({4, 4});
  StreamingConfig zero_window;
  zero_window.window = 0;
  EXPECT_THROW(StreamingEngine(machine, EvalOptions{}, zero_window),
               PreconditionError);

  StreamingEngine engine(machine, EvalOptions{}, fast_config(4, 0));
  EXPECT_THROW(engine.append_step({ContextRequirement{DynamicBitset(4), 0}}),
               PreconditionError);
  // Private demand beyond the machine's (absent) pool.
  EXPECT_THROW(engine.append_step({ContextRequirement{DynamicBitset(4), 1},
                                   ContextRequirement{DynamicBitset(4), 0}}),
               PreconditionError);
  EXPECT_THROW(engine.current_solution(), PreconditionError);
}

TEST(StreamingEngine, FailedWindowLeavesTheStreamAsWithoutTheAttempt) {
  // Stream `a` makes extra flush attempts under a cancelled token; stream
  // `b` never does.  Each failed attempt must leave the published schedule
  // and current_solution() as they were, and every later successful
  // re-solve must publish exactly what `b` publishes at the same step.
  const std::size_t tasks = 2;
  const std::size_t universe = 12;
  Xoshiro256 rng(0xFA11);
  const MultiTaskTrace trace =
      workload::make_multi_family("random-walk", tasks, 48, universe, rng);
  const MachineSpec machine =
      MachineSpec::local_only(std::vector<std::size_t>(tasks, universe));
  StreamingEngine a(machine, EvalOptions{}, fast_config(8, 5));
  StreamingEngine b(machine, EvalOptions{}, fast_config(8, 5));

  std::size_t failed = 0;
  for (std::size_t i = 0; i < trace.steps(); ++i) {
    if (a.append_step_deferred(trace.step(i)).has_value()) {
      a.resolve_pending(CancelToken{});
    }
    const bool b_solved = b.append_step(trace.step(i));
    if (i % 7 == 3 && a.request_flush().has_value()) {
      const MultiTaskSchedule schedule = a.schedule();
      const CostBreakdown before = a.current_solution().breakdown;
      a.resolve_pending(CancelToken::expired());
      ASSERT_FALSE(a.windows().back().ok);
      ++failed;
      for (std::size_t j = 0; j < tasks; ++j) {
        ASSERT_EQ(a.schedule().tasks[j].starts(), schedule.tasks[j].starts());
        ASSERT_EQ(a.schedule().tasks[j].n(), schedule.tasks[j].n());
      }
      const CostBreakdown after = a.current_solution().breakdown;
      ASSERT_EQ(after.total, before.total) << "step " << i;
      ASSERT_EQ(after.hyper, before.hyper) << "step " << i;
      ASSERT_EQ(after.reconfig, before.reconfig) << "step " << i;
      ASSERT_EQ(after.partial_hyper_steps, before.partial_hyper_steps);
    }
    if (b_solved) {
      ASSERT_TRUE(a.windows().back().ok) << "step " << i;
      ASSERT_EQ(a.windows().back().published_cost,
                b.windows().back().published_cost)
          << "step " << i;
    }
    for (std::size_t j = 0; j < tasks; ++j) {
      ASSERT_EQ(a.schedule().tasks[j].starts(), b.schedule().tasks[j].starts())
          << "step " << i;
    }
    ASSERT_EQ(a.current_solution().total(), b.current_solution().total());
  }
  EXPECT_GE(failed, 4u);
  EXPECT_EQ(a.resolve_count(), b.resolve_count() + failed);
}

TEST(StreamingEngine, SpliceThatFailsToPriceRestoresThePublishedSchedule) {
  // Two tasks over a 2-unit pool, window 2: steps 0–3 demand (2, 0), steps
  // 4+ demand (0, 2).  The quota repairs at steps 4–6 run under a
  // cancelled token and fail before the splice; the one at step 7 solves
  // its window [6, 8) fine, but the spliced schedule's block [0, 6) holds
  // both phases and overflows the pool.  That throw comes while pricing,
  // after the in-place edit, which must be undone.
  StreamingConfig config = fast_config(2, 0);
  MachineSpec machine = MachineSpec::local_only({4, 4});
  machine.private_global_units = 2;
  machine.global_init = 3;
  StreamingEngine engine(machine, EvalOptions{}, config);
  const auto step = [](std::uint32_t d0, std::uint32_t d1) {
    ContextRequirement a{DynamicBitset(4), d0};
    ContextRequirement b{DynamicBitset(4), d1};
    a.local.set(0);
    b.local.set(1);
    return std::vector<ContextRequirement>{a, b};
  };
  for (std::size_t i = 0; i < 7; ++i) {
    const std::optional<TriggerKind> fired =
        engine.append_step_deferred(i < 4 ? step(2, 0) : step(0, 2));
    ASSERT_EQ(fired.has_value(), i == 0 || i >= 4) << "step " << i;
    if (fired.has_value()) {
      engine.resolve_pending(i == 0 ? CancelToken{} : CancelToken::expired());
    }
  }
  ASSERT_EQ(engine.append_step_deferred(step(0, 2)),
            TriggerKind::kQuotaRepair);
  const MultiTaskSchedule before = engine.schedule();
  EXPECT_THROW((void)engine.current_solution(), PreconditionError);

  engine.resolve_pending(CancelToken{});
  const WindowReport& window = engine.windows().back();
  EXPECT_FALSE(window.ok);
  EXPECT_NE(window.error.find("private-global demand"), std::string::npos)
      << window.error;
  EXPECT_EQ(window.window_lo, 6u);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(engine.schedule().tasks[j].starts(), before.tasks[j].starts());
    EXPECT_EQ(engine.schedule().tasks[j].n(), 8u);
  }
  EXPECT_EQ(engine.schedule().global_boundaries, before.global_boundaries);
  EXPECT_THROW((void)engine.current_solution(), PreconditionError);
}

TEST(StreamingEngine, ChangeoverStreamsPriceFromTheirLastSeam) {
  // Under changeover a seam carries every task's hypercontext into the
  // next interval's difference term: each published cost and each
  // between-re-solve breakdown must equal the one-shot evaluator's.
  const std::size_t tasks = 3;
  const std::size_t universe = 20;
  Xoshiro256 rng(0xC4A6);
  const MultiTaskTrace trace =
      workload::make_multi_family("phased", tasks, 60, universe, rng);
  const MachineSpec machine =
      MachineSpec::local_only(std::vector<std::size_t>(tasks, universe));
  for (const UploadMode hyper :
       {UploadMode::kTaskParallel, UploadMode::kTaskSequential}) {
    const EvalOptions options{hyper, UploadMode::kTaskSequential, true};
    StreamingConfig config = fast_config(9, 4);
    config.portfolio.solvers = {"greedy-w8"};
    StreamingEngine engine(machine, options, config);
    for (std::size_t i = 0; i < trace.steps(); ++i) {
      const bool solved = engine.append_step(trace.step(i));
      const CostBreakdown fresh = evaluate_fully_sync_switch(
          engine.trace(), machine, engine.schedule(), options);
      if (solved) {
        ASSERT_TRUE(engine.windows().back().ok)
            << engine.windows().back().error;
        ASSERT_EQ(engine.windows().back().published_cost, fresh.total)
            << "step " << i;
      }
      const CostBreakdown live = engine.current_solution().breakdown;
      ASSERT_EQ(live.total, fresh.total) << "step " << i;
      ASSERT_EQ(live.hyper, fresh.hyper) << "step " << i;
    }
    EXPECT_GE(engine.resolve_count(), 10u);
  }
}

TEST(StreamingEngine, RejectsAMachineWithNoTasks) {
  EXPECT_THROW(StreamingEngine(MachineSpec{}, EvalOptions{}, fast_config(4, 0)),
               PreconditionError);
}

TEST(BatchEngineStreaming, ReplayProducesStreamedJobsWithWindowReports) {
  Xoshiro256 rng(0xBa7);
  std::vector<engine::BatchJob> jobs;
  for (const char* family : {"phased", "periodic"}) {
    engine::BatchJob job;
    Xoshiro256 family_rng = rng.split(jobs.size());
    job.trace = workload::make_multi_family(family, 2, 20, 8, family_rng);
    job.machine = MachineSpec::local_only(std::vector<std::size_t>(2, 8));
    job.name = family;
    jobs.push_back(std::move(job));
  }

  engine::BatchEngineConfig config;
  config.parallelism = 2;
  config.portfolio.solvers = {"aligned-dp", "greedy-w8"};
  config.stream.enabled = true;
  config.stream.window = 8;
  config.stream.trigger.every_steps = 5;
  const engine::BatchResult result =
      engine::BatchEngine(std::move(config)).solve(jobs);

  ASSERT_EQ(result.jobs.size(), jobs.size());
  for (const engine::JobResult& job : result.jobs) {
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_TRUE(job.streamed);
    EXPECT_EQ(job.winner, "streaming");
    EXPECT_EQ(job.cache, engine::JobCacheOutcome::kBypass);
    ASSERT_GE(job.windows.size(), 2u);
    EXPECT_EQ(job.windows.front().trigger, TriggerKind::kInitial);
    for (const WindowReport& window : job.windows) {
      EXPECT_TRUE(window.ok) << window.error;
    }
    // The reported solution covers the whole trace (the periodic family
    // rounds the step count up to whole periods) and matches the final
    // published cost.
    ASSERT_NO_THROW(
        job.solution.schedule.validate(2, jobs[job.index].trace.steps()));
    EXPECT_EQ(job.solution.total(), job.windows.back().published_cost);
  }
}

TEST(BatchEngineStreaming, StreamedBatchMatchesDirectStreamingEngine) {
  Xoshiro256 rng(0x1CE);
  const MultiTaskTrace trace =
      workload::make_multi_family("random-walk", 2, 18, 10, rng);
  const MachineSpec machine =
      MachineSpec::local_only(std::vector<std::size_t>(2, 10));

  engine::BatchJob job;
  job.trace = trace;
  job.machine = machine;
  job.name = "replay";
  engine::BatchEngineConfig config;
  config.portfolio.solvers = {"aligned-dp"};
  config.stream.enabled = true;
  config.stream.window = 6;
  config.stream.trigger.every_steps = 4;
  const engine::BatchResult batch =
      engine::BatchEngine(std::move(config)).solve({job});

  StreamingConfig direct = fast_config(6, 4);
  direct.portfolio.solvers = {"aligned-dp"};
  StreamingEngine engine(machine, EvalOptions{}, direct);
  for (std::size_t i = 0; i < trace.steps(); ++i) {
    engine.append_step(trace.step(i));
  }
  engine.flush();

  ASSERT_TRUE(batch.jobs[0].ok) << batch.jobs[0].error;
  EXPECT_EQ(batch.jobs[0].solution.total(), engine.current_solution().total());
  ASSERT_EQ(batch.jobs[0].windows.size(), engine.windows().size());
  for (std::size_t k = 0; k < engine.windows().size(); ++k) {
    EXPECT_EQ(batch.jobs[0].windows[k].published_cost,
              engine.windows()[k].published_cost);
  }
}

}  // namespace
}  // namespace hyperrec::streaming
