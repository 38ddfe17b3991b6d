// Streaming-vs-offline property fuzz: 200 seeded grow-a-trace scenarios
// across every workload family and the word-seam universes.  For each
// scenario the streaming engine ingests the trace step-by-step and must
//
//   * keep its appended stats equal to a fresh build at EVERY appended
//     step (MultiTaskTraceStats::operator== compares every sparse-table row
//     and demand sum),
//   * publish a schedule that validates over everything seen so far,
//   * price it on those live stats exactly as the offline evaluator does on
//     freshly built tables: a re-solve's published cost, and between
//     re-solves current_solution()'s whole breakdown (odd seeds run
//     private-global machines, so the quota check on the live view is
//     covered too), and
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
/// demand ramp added on odd seeds so the demand-sum tables and the
/// private-global machinery get fuzzed too.
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

TEST(StreamingVsOffline, FuzzedGrowingTracesStayConsistentAndCostBounded) {
  const std::vector<std::size_t> universes = {8, 63, 64, 65};
  std::size_t scenarios = 0;
  for (const std::string& family : workload::family_names()) {
    for (const std::size_t universe : universes) {
      for (std::uint64_t seed = 0; seed < 10; ++seed) {
        SCOPED_TRACE(family + "/u" + std::to_string(universe) + "/s" +
                     std::to_string(seed));
        const Scenario scenario = make_scenario(family, universe, seed);
        const std::size_t steps = scenario.trace.steps();

        StreamingConfig config;
        config.window = kWindow;
        config.trigger.every_steps = kEverySteps;
        config.portfolio.solvers = {"aligned-dp", "greedy-w8"};
        StreamingEngine engine(scenario.machine, EvalOptions{}, config);

        for (std::size_t i = 0; i < steps; ++i) {
          const bool resolved = engine.append_step(scenario.trace.step(i));
          // The appended stats must equal a from-scratch build after every
          // single append.
          ASSERT_TRUE(engine.stats() == MultiTaskTraceStats(engine.trace()))
              << "step " << i;
          // The published schedule must cover and validate [0, i].
          ASSERT_NO_THROW(engine.schedule().validate(kTasks, i + 1))
              << "step " << i;
          const CostBreakdown fresh = evaluate_fully_sync_switch(
              engine.trace(), scenario.machine, engine.schedule());
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
            SolveInstance(scenario.trace, scenario.machine), offline);
        EXPECT_LE(static_cast<double>(streamed.total()),
                  kCostFactor * static_cast<double>(reference.best.total()))
            << "stream " << streamed.total() << " vs offline "
            << reference.best.total();
        ++scenarios;
      }
    }
  }
  EXPECT_EQ(scenarios, 200u);
}

}  // namespace
}  // namespace hyperrec::streaming
