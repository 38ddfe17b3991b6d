// Streaming-vs-offline property fuzz: 200 seeded grow-a-trace scenarios
// across every workload family and the word-seam universes, each under
// task-sequential and task-parallel reconfiguration upload.  For each
// scenario the streaming engine ingests the trace step-by-step and must
//
//   * hold exactly the steps appended so far,
//   * publish a schedule that validates over everything seen so far,
//   * price it from its last splice seam exactly as the offline evaluator
//     prices it over the whole trace: a re-solve's published cost, and
//     between re-solves current_solution()'s whole breakdown (odd seeds run
//     private-global machines, so the quota check of a walk resumed at a
//     seam is covered too), and
//   * finish with a spliced schedule whose cost is within a bounded factor
//     of the offline portfolio solve (same members) on the same final trace.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/portfolio.hpp"
#include "model/cost_switch.hpp"
#include "streaming/streaming_engine.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace hyperrec::streaming {
namespace {

constexpr std::size_t kTasks = 2;
constexpr std::size_t kSteps = 18;
constexpr std::size_t kWindow = 6;
constexpr std::size_t kEverySteps = 4;
// The window solver only sees kWindow steps at a time, so it can misplace
// boundaries an offline solve would avoid.  Most families stay within
// ~1.1x; the worst case is bursty traces over wide universes, where offline
// keeps one hypercontext across long quiet stretches the 6-step window
// cannot see — observed up to ~2.3x there, so the bound is 3x.
constexpr double kCostFactor = 3.0;

/// Scenario trace: a fresh multi-task trace of `family`, with a private
/// demand ramp added on odd seeds so the private-global machinery gets
/// fuzzed too.
struct Scenario {
  MultiTaskTrace trace;
  MachineSpec machine;
};

Scenario make_scenario(const std::string& family, std::size_t universe,
                       std::uint64_t seed) {
  Scenario scenario;
  const bool with_demands = (seed % 2) == 1;
  Xoshiro256 root(seed * 7919 + universe);
  std::vector<std::size_t> universes;
  for (std::size_t j = 0; j < kTasks; ++j) {
    Xoshiro256 rng = root.split(j);
    TaskTrace task = workload::make_family(family, kSteps, universe, rng);
    if (with_demands) workload::add_private_demand(task, 0, 2, 3);
    scenario.trace.add_task(std::move(task));
    universes.push_back(universe);
  }
  scenario.machine = MachineSpec::local_only(universes);
  if (with_demands) {
    // Pool large enough that every schedule is quota-feasible — the §4.2
    // evaluator enforces per-block feasibility, and these scenarios fuzz
    // the splice/trigger machinery, not infeasibility handling.
    scenario.machine.private_global_units = 2 * kTasks;
    scenario.machine.global_init = 5;
  }
  return scenario;
}

/// Streams one scenario step by step under `options` and checks it as the
/// header describes.
void check_scenario(const Scenario& scenario, const EvalOptions& options) {
  const std::size_t steps = scenario.trace.steps();
  StreamingConfig config;
  config.window = kWindow;
  config.trigger.every_steps = kEverySteps;
  config.portfolio.solvers = {"aligned-dp", "greedy-w8"};
  StreamingEngine engine(scenario.machine, options, config);

  for (std::size_t i = 0; i < steps; ++i) {
    const bool resolved = engine.append_step(scenario.trace.step(i));
    ASSERT_EQ(engine.steps(), i + 1);
    // The published schedule must cover and validate [0, i].
    ASSERT_NO_THROW(engine.schedule().validate(kTasks, i + 1))
        << "step " << i;
    const CostBreakdown fresh = evaluate_fully_sync_switch(
        engine.trace(), scenario.machine, engine.schedule(), options);
    if (resolved) {
      const WindowReport& window = engine.windows().back();
      ASSERT_TRUE(window.ok) << window.error;
      ASSERT_EQ(window.published_cost, fresh.total) << "step " << i;
    } else {
      const CostBreakdown live = engine.current_solution().breakdown;
      ASSERT_EQ(live.total, fresh.total) << "step " << i;
      ASSERT_EQ(live.hyper, fresh.hyper) << "step " << i;
      ASSERT_EQ(live.reconfig, fresh.reconfig) << "step " << i;
      ASSERT_EQ(live.global_hyper, fresh.global_hyper) << "step " << i;
      ASSERT_EQ(live.partial_hyper_steps, fresh.partial_hyper_steps)
          << "step " << i;
    }
  }
  engine.flush();
  for (const WindowReport& window : engine.windows()) {
    ASSERT_TRUE(window.ok) << window.error;
  }

  const MTSolution streamed = engine.current_solution();
  ASSERT_NO_THROW(streamed.schedule.validate(kTasks, steps));

  engine::PortfolioConfig offline;
  offline.solvers = {"aligned-dp", "greedy-w8"};
  offline.parallel = false;
  const engine::PortfolioResult reference = engine::solve_portfolio(
      SolveInstance(scenario.trace, scenario.machine, options), offline);
  EXPECT_LE(static_cast<double>(streamed.total()),
            kCostFactor * static_cast<double>(reference.best.total()))
      << "stream " << streamed.total() << " vs offline "
      << reference.best.total();
}

TEST(StreamingVsOffline, FuzzedGrowingTracesStayConsistentAndCostBounded) {
  const std::vector<std::size_t> universes = {8, 63, 64, 65};
  std::size_t scenarios = 0;
  for (const UploadMode reconfig :
       {UploadMode::kTaskSequential, UploadMode::kTaskParallel}) {
    EvalOptions options;
    options.reconfig_upload = reconfig;
    for (const std::string& family : workload::family_names()) {
      for (const std::size_t universe : universes) {
        for (std::uint64_t seed = 0; seed < 10; ++seed) {
          SCOPED_TRACE(family + "/u" + std::to_string(universe) + "/s" +
                       std::to_string(seed) + "/reconfig " +
                       (reconfig == UploadMode::kTaskParallel ? "par"
                                                              : "seq"));
          check_scenario(make_scenario(family, universe, seed), options);
          if (HasFatalFailure()) return;
          ++scenarios;
        }
      }
    }
  }
  EXPECT_EQ(scenarios, 400u);
}

}  // namespace
}  // namespace hyperrec::streaming
