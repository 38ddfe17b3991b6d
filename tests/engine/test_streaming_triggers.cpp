// Deterministic trigger-policy coverage for the streaming engine: each
// trigger kind fires exactly when specified, no-trigger streams never
// re-solve past the initial window, and a failed or cancelled window solve
// never tears the published schedule.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "model/cost_switch.hpp"
#include "streaming/streaming_engine.hpp"
#include "support/cancel.hpp"

namespace hyperrec::streaming {
namespace {

ContextRequirement req_bits(std::size_t universe,
                            std::initializer_list<std::size_t> bits,
                            std::uint32_t demand = 0) {
  ContextRequirement req{DynamicBitset(universe), demand};
  for (const std::size_t b : bits) req.local.set(b);
  return req;
}

StreamingConfig base_config(std::size_t window) {
  StreamingConfig config;
  config.window = window;
  config.portfolio.solvers = {"aligned-dp"};
  return config;
}

TEST(StreamingTriggers, StepCountFiresExactlyEveryN) {
  StreamingConfig config = base_config(32);
  config.trigger.every_steps = 4;
  StreamingEngine engine(MachineSpec::local_only({6}), EvalOptions{}, config);

  std::vector<std::size_t> resolve_steps;
  for (std::size_t i = 0; i < 14; ++i) {
    if (engine.append_step({req_bits(6, {i % 6})})) {
      resolve_steps.push_back(i + 1);
      EXPECT_TRUE(engine.windows().back().ok) << engine.windows().back().error;
    }
  }
  // Initial at step 1, then exactly every 4 appended steps: 5, 9, 13.
  EXPECT_EQ(resolve_steps, (std::vector<std::size_t>{1, 5, 9, 13}));
  ASSERT_EQ(engine.resolve_count(), 4u);
  EXPECT_EQ(engine.windows()[0].trigger, TriggerKind::kInitial);
  for (std::size_t k = 1; k < engine.windows().size(); ++k) {
    EXPECT_EQ(engine.windows()[k].trigger, TriggerKind::kStepCount);
  }
}

TEST(StreamingTriggers, DemandSpikeFiresOnTheSpikeStepOnly) {
  // Two tasks over a 4-unit pool; steady per-step demand sum 2, one spike
  // of sum 4 at step index 8.  spike_factor 1.5 ⇒ fire iff sum > 3.
  StreamingConfig config = base_config(32);
  config.trigger.spike_factor = 1.5;
  MachineSpec machine = MachineSpec::local_only({4, 4});
  machine.private_global_units = 4;
  machine.global_init = 3;
  StreamingEngine engine(machine, EvalOptions{}, config);

  std::vector<std::size_t> spike_steps;
  for (std::size_t i = 0; i < 12; ++i) {
    const std::uint32_t demand = i == 8 ? 2 : 1;
    const bool solved = engine.append_step(
        {req_bits(4, {0}, demand), req_bits(4, {1}, demand)});
    if (solved && engine.windows().back().trigger == TriggerKind::kDemandSpike) {
      spike_steps.push_back(i);
    }
  }
  EXPECT_EQ(spike_steps, (std::vector<std::size_t>{8}));
  // Initial solve + the one spike re-solve; the steady steps never fire.
  EXPECT_EQ(engine.resolve_count(), 2u);
  EXPECT_TRUE(engine.windows().back().ok) << engine.windows().back().error;
  // After the spike re-solve the baseline includes the spike, so an equal
  // follow-up spike of sum 4 would need > 6 to fire again: appending more
  // steady steps stays quiet.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(engine.append_step({req_bits(4, {0}, 1), req_bits(4, {1}, 1)}));
  }
}

TEST(StreamingTriggers, PostLullHeartbeatsNeverStormTheSolver) {
  // Regression for the re-solve storm: a stream that alternates quiet
  // stretches with tiny demand-1 heartbeats, with a step-count trigger
  // keeping the last solved window all-quiet.  The old spike baseline was
  // frozen at that last solved window — ~0 after every quiet stretch — so
  // EVERY post-lull heartbeat fired a kDemandSpike re-solve (a storm: one
  // expensive window solve per routine heartbeat).  The fixed trigger
  // applies the absolute floor `spike_min_demand` before any ratio check,
  // so sub-floor heartbeats can never fire however stale the baseline.
  StreamingConfig config = base_config(4);
  config.trigger.every_steps = 4;
  config.trigger.spike_factor = 1.5;
  config.trigger.spike_min_demand = 2;
  MachineSpec machine = MachineSpec::local_only({4});
  machine.private_global_units = 2;
  machine.global_init = 3;
  StreamingEngine engine(machine, EvalOptions{}, config);

  // Busy steps 0-5 (demand 2), quiet steps 6-13, then four heartbeat
  // cycles [demand-1, 0, 0, 0] — heartbeats land between the step-count
  // re-solves, each seeing an all-quiet last solved window.
  std::vector<std::uint32_t> demands;
  for (std::size_t i = 0; i < 6; ++i) demands.push_back(2);
  for (std::size_t i = 0; i < 8; ++i) demands.push_back(0);
  for (std::size_t c = 0; c < 4; ++c) {
    demands.push_back(1);
    for (std::size_t i = 0; i < 3; ++i) demands.push_back(0);
  }
  for (std::size_t i = 0; i < demands.size(); ++i) {
    engine.append_step({req_bits(4, {i % 4}, demands[i])});
  }
  // Deterministic schedule: the initial solve plus one step-count re-solve
  // every 4 steps — and not one demand-spike window.  (The frozen-baseline
  // logic fires 4 extra kDemandSpike windows here, one per heartbeat.)
  EXPECT_EQ(engine.resolve_count(), 8u);
  for (const WindowReport& window : engine.windows()) {
    EXPECT_NE(window.trigger, TriggerKind::kDemandSpike);
    EXPECT_TRUE(window.ok) << window.error;
  }
}

TEST(StreamingTriggers, SpikeAfterLullFiresDespiteStaleBusyBaseline) {
  // Dual of the storm: the frozen baseline also went stale in the other
  // direction.  A busy initial window (demand 4) froze a HIGH baseline, so
  // a genuine post-lull spike of demand 2 stayed below 1.5 x 4 and was
  // missed.  The fixed baseline tracks the trailing `window` steps — all
  // quiet by then — so the spike fires exactly once, at the spike step.
  StreamingConfig config = base_config(4);
  config.trigger.spike_factor = 1.5;
  MachineSpec machine = MachineSpec::local_only({4});
  machine.private_global_units = 4;
  machine.global_init = 3;
  StreamingEngine engine(machine, EvalOptions{}, config);

  engine.append_step({req_bits(4, {0}, 4)});  // initial solve, busy step
  for (std::size_t i = 1; i < 7; ++i) {
    EXPECT_FALSE(engine.append_step({req_bits(4, {i % 4}, 0)}));
  }
  // The demand-2 step after six quiet steps is a spike against the trailing
  // window (baseline 0), however busy the last *solved* window was.
  EXPECT_TRUE(engine.append_step({req_bits(4, {3}, 2)}));
  ASSERT_EQ(engine.resolve_count(), 2u);
  EXPECT_EQ(engine.windows().back().trigger, TriggerKind::kDemandSpike);
  EXPECT_TRUE(engine.windows().back().ok) << engine.windows().back().error;
  // Quiet aftermath: nothing else fires.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(engine.append_step({req_bits(4, {i}, 0)}));
  }
  EXPECT_EQ(engine.resolve_count(), 2u);
}

TEST(StreamingTriggers, QuotaRepairSealsAnOverflowingBlock) {
  // Two tasks over a 2-unit pool.  Steps 0..3 demand (2, 0), steps 4+
  // demand (0, 2): the published schedule's single growing quota block
  // would need Σ_j max = 4 > 2 once both phases are inside it, which the
  // §4.2 evaluator rejects.  The always-on quota-repair trigger must fire
  // at the first overflowing step and — once the sliding window clears the
  // phase boundary — seal the old block behind a global boundary so the
  // published schedule evaluates again.
  StreamingConfig config = base_config(2);  // window 2: clears the seam fast
  MachineSpec machine = MachineSpec::local_only({4, 4});
  machine.private_global_units = 2;
  machine.global_init = 3;
  StreamingEngine engine(machine, EvalOptions{}, config);

  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.append_step({req_bits(4, {0}, 2), req_bits(4, {1}, 0)}),
              i == 0)
        << "step " << i;  // only the initial solve fires in phase one
  }
  std::size_t repairs = 0;
  for (std::size_t i = 4; i < 8; ++i) {
    const bool solved =
        engine.append_step({req_bits(4, {0}, 0), req_bits(4, {1}, 2)});
    if (solved) {
      EXPECT_EQ(engine.windows().back().trigger, TriggerKind::kQuotaRepair);
      ++repairs;
    }
  }
  EXPECT_GE(repairs, 1u);
  // At least one repair succeeded: the published schedule carries a global
  // boundary sealing the phase-one block and evaluates cleanly again.
  EXPECT_TRUE(engine.windows().back().ok) << engine.windows().back().error;
  EXPECT_GT(engine.schedule().global_boundaries.size(), 1u);
  ASSERT_NO_THROW(engine.current_solution());
}

TEST(StreamingTriggers, RentOrBuyFiresOnAForcedRefit) {
  // A single task that needs bit 0 for seven steps and then switches to bit
  // 1: the rent-or-buy controller's hypercontext no longer covers the
  // requirement, forcing a buy exactly there.  A huge alpha disables
  // voluntary re-fits, so no other step can trigger.
  StreamingConfig config = base_config(32);
  config.trigger.rent_or_buy = true;
  config.trigger.rent_or_buy_config.alpha = 1e9;
  config.trigger.rent_or_buy_config.fit_window = 1;
  StreamingEngine engine(MachineSpec::local_only({4}), EvalOptions{}, config);

  std::vector<std::size_t> refit_steps;
  for (std::size_t i = 0; i < 12; ++i) {
    const bool solved =
        engine.append_step({i < 7 ? req_bits(4, {0}) : req_bits(4, {1})});
    if (solved && engine.windows().back().trigger == TriggerKind::kRentOrBuy) {
      refit_steps.push_back(i);
    }
  }
  EXPECT_EQ(refit_steps, (std::vector<std::size_t>{7}));
  EXPECT_EQ(engine.resolve_count(), 2u);  // initial + the forced re-fit
}

TEST(StreamingTriggers, RejectedStepLeavesRentOrBuyControllersUntouched) {
  // Regression: the controllers were fed task by task before the universes
  // were validated, so a step rejected for task 1's universe had already
  // moved task 0's controller onto bit 1 — and the real switch to bit 1
  // that follows no longer forced a re-fit.
  StreamingConfig config = base_config(32);
  config.trigger.rent_or_buy = true;
  config.trigger.rent_or_buy_config.alpha = 1e9;
  config.trigger.rent_or_buy_config.fit_window = 1;
  const auto last_trigger = [&config](bool send_rejected_step) {
    StreamingEngine engine(MachineSpec::local_only({4, 4}), EvalOptions{},
                           config);
    EXPECT_TRUE(engine.append_step({req_bits(4, {0}), req_bits(4, {0})}));
    if (send_rejected_step) {
      EXPECT_THROW(engine.append_step({req_bits(4, {1}), req_bits(5, {0})}),
                   PreconditionError);
      EXPECT_EQ(engine.steps(), 1u);
    }
    const bool solved =
        engine.append_step({req_bits(4, {1}), req_bits(4, {0})});
    return solved ? std::optional<TriggerKind>(engine.windows().back().trigger)
                  : std::nullopt;
  };
  EXPECT_EQ(last_trigger(false), TriggerKind::kRentOrBuy);
  EXPECT_EQ(last_trigger(true), TriggerKind::kRentOrBuy);
}

TEST(StreamingTriggers, DeadlineTickFiresAfterWallTimePasses) {
  StreamingConfig config = base_config(32);
  config.trigger.tick = std::chrono::milliseconds{15};
  StreamingEngine engine(MachineSpec::local_only({4}), EvalOptions{}, config);

  EXPECT_TRUE(engine.append_step({req_bits(4, {0})}));  // initial
  EXPECT_FALSE(engine.append_step({req_bits(4, {1})}));  // tick not elapsed
  std::this_thread::sleep_for(std::chrono::milliseconds{25});
  EXPECT_TRUE(engine.append_step({req_bits(4, {2})}));
  EXPECT_EQ(engine.windows().back().trigger, TriggerKind::kDeadlineTick);
  EXPECT_TRUE(engine.windows().back().ok) << engine.windows().back().error;
}

TEST(StreamingTriggers, TickClockArmsOnFirstIngestNotAtConstruction) {
  // Regression: the tick baseline used to be stamped in the constructor, so
  // an engine built ahead of traffic (a daemon registers tenant engines
  // before their first request) counted the idle pre-traffic gap as "time
  // since the last solve".  The repro pins the baseline: the engine-wide
  // cancel token is already fired, so the initial solve fails and never
  // re-arms the clock — with the construction-time baseline, the very next
  // append then fired a bogus kDeadlineTick re-solve; with the clock armed
  // on first ingest, back-to-back appends stay far inside the tick budget.
  const CancelToken cancel = CancelToken::manual();
  cancel.cancel();
  StreamingConfig config = base_config(32);
  config.trigger.tick = std::chrono::milliseconds{250};
  config.cancel = cancel;
  StreamingEngine engine(MachineSpec::local_only({4}), EvalOptions{}, config);

  // Idle longer than the tick budget before any traffic arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds{400});

  EXPECT_TRUE(engine.append_step({req_bits(4, {0})}));  // initial (fails)
  ASSERT_EQ(engine.resolve_count(), 1u);
  EXPECT_EQ(engine.windows().back().trigger, TriggerKind::kInitial);
  EXPECT_FALSE(engine.windows().back().ok);

  // Immediately after: nothing solved yet, but also no 250 ms elapsed since
  // the first step arrived — the tick trigger must stay quiet.
  EXPECT_FALSE(engine.append_step({req_bits(4, {1})}));
  EXPECT_EQ(engine.resolve_count(), 1u);
  for (const WindowReport& window : engine.windows()) {
    EXPECT_NE(window.trigger, TriggerKind::kDeadlineTick);
  }
}

TEST(StreamingTriggers, NoTriggerStreamsNeverResolvePastTheInitialWindow) {
  StreamingConfig config = base_config(8);  // all triggers at their defaults
  StreamingEngine engine(MachineSpec::local_only({5}), EvalOptions{}, config);
  EXPECT_TRUE(engine.append_step({req_bits(5, {0})}));
  for (std::size_t i = 1; i < 40; ++i) {
    EXPECT_FALSE(engine.append_step({req_bits(5, {i % 5})})) << "step " << i;
  }
  EXPECT_EQ(engine.resolve_count(), 1u);
  ASSERT_NO_THROW(engine.schedule().validate(1, 40));
}

TEST(StreamingTriggers, CancelledStreamNeverTearsThePublishedSchedule) {
  const CancelToken cancel = CancelToken::manual();
  StreamingConfig config = base_config(16);
  config.trigger.every_steps = 3;
  config.cancel = cancel;
  StreamingEngine engine(MachineSpec::local_only({6}), EvalOptions{}, config);

  for (std::size_t i = 0; i < 7; ++i) {
    engine.append_step({req_bits(6, {i % 6})});
  }
  ASSERT_GE(engine.resolve_count(), 2u);
  const std::vector<std::size_t> starts = engine.schedule().tasks[0].starts();
  const Cost cost_before = engine.current_solution().total();
  const std::size_t resolves_before = engine.resolve_count();

  cancel.cancel();
  for (std::size_t i = 0; i < 6; ++i) {
    engine.append_step({req_bits(6, {(7 + i) % 6})});
  }
  // Triggers still fired, but every cancelled window solve failed without
  // touching the published schedule.
  EXPECT_GT(engine.resolve_count(), resolves_before);
  for (std::size_t k = resolves_before; k < engine.windows().size(); ++k) {
    EXPECT_FALSE(engine.windows()[k].ok);
    EXPECT_NE(engine.windows()[k].error.find("cancel"), std::string::npos);
  }
  EXPECT_EQ(engine.schedule().tasks[0].starts(), starts);
  ASSERT_NO_THROW(engine.schedule().validate(1, 13));
  // The published schedule still extends over (and evaluates on) the steps
  // appended after cancellation.
  EXPECT_GE(engine.current_solution().total(), cost_before);

  // flush() on a cancelled stream is likewise a failed, non-tearing window.
  EXPECT_TRUE(engine.flush());
  EXPECT_FALSE(engine.windows().back().ok);
  EXPECT_EQ(engine.schedule().tasks[0].starts(), starts);
}

TEST(StreamingTriggers, InvalidWindowSolutionIsRejectedWithoutPublishing) {
  // A hostile portfolio member that always "wins" with cost 0 but returns a
  // schedule whose global boundary is out of range: the splice validation
  // must reject it and keep the previous published schedule intact.
  StreamingConfig config = base_config(16);
  config.trigger.every_steps = 2;
  config.portfolio.solvers = {"aligned-dp"};
  NamedSolver hostile;
  hostile.name = "hostile";
  hostile.fn = [](const SolveInstance& instance, const CancelToken&) {
    MTSolution solution;
    solution.schedule = MultiTaskSchedule::all_single(instance.task_count(),
                                                      instance.steps());
    solution.schedule.global_boundaries = {instance.steps() + 7};
    solution.breakdown.total = 0;  // beats every honest member
    return solution;
  };
  config.portfolio.extra.push_back(hostile);
  // Task-sequential hyper upload keeps the instance outside the aligned
  // DP's exact class, so the hostile member races instead of being skipped.
  EvalOptions options;
  options.hyper_upload = UploadMode::kTaskSequential;
  StreamingEngine engine(MachineSpec::local_only({4}), options, config);

  engine.append_step({req_bits(4, {0})});
  // The initial window already went through the hostile winner: it failed
  // to publish, so the engine has no published schedule yet...
  ASSERT_EQ(engine.resolve_count(), 1u);
  EXPECT_FALSE(engine.windows()[0].ok);

  // ...and every later re-solve keeps failing the same way without ever
  // publishing a torn schedule.
  for (std::size_t i = 1; i < 6; ++i) {
    engine.append_step({req_bits(4, {i % 4})});
  }
  for (const WindowReport& window : engine.windows()) {
    EXPECT_FALSE(window.ok);
    EXPECT_NE(window.error.find("global boundary"), std::string::npos)
        << window.error;
  }
  EXPECT_TRUE(engine.schedule().tasks.empty());
  EXPECT_THROW(engine.current_solution(), PreconditionError);
}

}  // namespace
}  // namespace hyperrec::streaming
