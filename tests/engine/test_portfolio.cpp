#include "engine/portfolio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "core/aligned_dp.hpp"
#include "core/greedy.hpp"
#include "core/lower_bound.hpp"
#include "model/trace_stats.hpp"
#include "testutil/workload_instances.hpp"

namespace hyperrec::engine {
namespace {

using testutil::seeded_workload_instances;
using testutil::WorkloadInstance;

WorkloadInstance small_instance() {
  return seeded_workload_instances(3, 24, 12, 0xF01D)[0];
}

/// small_instance() with unequal v_j: outside the aligned DP's exact class
/// (core/aligned_dp.hpp), so every member really races.
WorkloadInstance racing_instance() {
  WorkloadInstance instance = small_instance();
  instance.machine.tasks[0].local_init += 1;
  return instance;
}

/// Guards the race tests against going vacuous: had the instance fallen
/// into the exact class, the members would be skipped instead of raced.
void expect_no_exact_skip(const PortfolioResult& result) {
  for (const PortfolioEntry& entry : result.entries) {
    EXPECT_NE(entry.error.rfind("skipped: aligned-dp is exact", 0), 0u)
        << entry.solver;
  }
}

TEST(Portfolio, EmptyConfigRacesTheWholeLineUp) {
  const WorkloadInstance instance = small_instance();
  const PortfolioResult result =
      solve_portfolio(SolveInstance(instance.trace, instance.machine));
  EXPECT_EQ(result.entries.size(), standard_solvers().size());
  EXPECT_FALSE(result.winner.empty());
}

TEST(Portfolio, WinnerHasTheMinimumTotalAmongMembers) {
  const WorkloadInstance instance = racing_instance();
  PortfolioConfig config;
  config.solvers = {"aligned-dp", "greedy-w8", "coord-descent"};
  const PortfolioResult result =
      solve_portfolio(SolveInstance(instance.trace, instance.machine), config);
  ASSERT_EQ(result.entries.size(), 3u);
  Cost minimum = result.entries.front().total;
  for (const PortfolioEntry& entry : result.entries) {
    ASSERT_TRUE(entry.ok) << entry.solver << ": " << entry.error;
    minimum = std::min(minimum, entry.total);
  }
  EXPECT_EQ(result.best.total(), minimum);
  const bool winner_requested =
      std::find(config.solvers.begin(), config.solvers.end(), result.winner) !=
      config.solvers.end();
  EXPECT_TRUE(winner_requested) << result.winner;
}

TEST(Portfolio, UnknownMemberNameIsAPreconditionError) {
  const WorkloadInstance instance = small_instance();
  PortfolioConfig config;
  config.solvers = {"aligned-dp", "no-such-solver"};
  EXPECT_THROW(solve_portfolio(SolveInstance(instance.trace, instance.machine),
                               config),
               PreconditionError);
}

TEST(Portfolio, SerialAndParallelAgreeWithoutADeadline) {
  // All five members are deterministic given their fixed seeds, so without
  // a deadline the execution mode cannot change any entry's cost.
  const WorkloadInstance instance = racing_instance();
  PortfolioConfig serial;
  serial.parallel = false;
  PortfolioConfig parallel;
  parallel.parallel = true;
  const SolveInstance problem(instance.trace, instance.machine);
  const PortfolioResult a = solve_portfolio(problem, serial);
  const PortfolioResult b = solve_portfolio(problem, parallel);
  expect_no_exact_skip(a);
  expect_no_exact_skip(b);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].solver, b.entries[i].solver);
    EXPECT_EQ(a.entries[i].total, b.entries[i].total) << a.entries[i].solver;
  }
  EXPECT_EQ(a.best.total(), b.best.total());
  EXPECT_EQ(a.winner, b.winner);
}

TEST(Portfolio, CancelLosersStillReportsEveryMember) {
  const WorkloadInstance instance = racing_instance();
  PortfolioConfig config;
  config.cancel_losers = true;
  const PortfolioResult result =
      solve_portfolio(SolveInstance(instance.trace, instance.machine), config);
  EXPECT_EQ(result.entries.size(), standard_solvers().size());
  for (const PortfolioEntry& entry : result.entries) {
    EXPECT_TRUE(entry.ok) << entry.solver << ": " << entry.error;
  }
}

TEST(Portfolio, SerialCancelLosersSkipsMembersAfterTheFirstWin) {
  const WorkloadInstance instance = small_instance();
  PortfolioConfig config;
  config.solvers = {"greedy-w8", "coord-descent", "annealing"};
  config.cancel_losers = true;
  config.parallel = false;
  const PortfolioResult result =
      solve_portfolio(SolveInstance(instance.trace, instance.machine), config);
  ASSERT_EQ(result.entries.size(), 3u);
  EXPECT_TRUE(result.entries[0].ok) << result.entries[0].error;
  EXPECT_EQ(result.winner, "greedy-w8");
  for (std::size_t i = 1; i < result.entries.size(); ++i) {
    EXPECT_FALSE(result.entries[i].ok);
    EXPECT_NE(result.entries[i].error.find("skipped"), std::string::npos)
        << result.entries[i].error;
  }
}

TEST(Portfolio, RaceFromInsideItsOwnPoolDegradesToSerialInsteadOfDeadlock) {
  // One worker, and the race is started from that worker: without the
  // on_worker_thread() guard the member tasks would sit behind the blocked
  // worker forever.
  const WorkloadInstance instance = racing_instance();
  ThreadPool pool(1);
  PortfolioConfig config;
  config.solvers = {"aligned-dp", "greedy-w8"};
  config.parallel = true;
  config.pool = &pool;
  auto future = pool.submit([&]() {
    return solve_portfolio(SolveInstance(instance.trace, instance.machine),
                           config);
  });
  const PortfolioResult result = future.get();
  ASSERT_EQ(result.entries.size(), 2u);
  for (const PortfolioEntry& entry : result.entries) {
    EXPECT_TRUE(entry.ok) << entry.solver << ": " << entry.error;
  }
  EXPECT_FALSE(result.winner.empty());
}

TEST(Portfolio, ExternalCancelStillYieldsAFeasibleBest) {
  const WorkloadInstance instance = racing_instance();
  const SolveInstance problem(instance.trace, instance.machine);
  const PortfolioResult result =
      solve_portfolio(problem, {}, CancelToken::expired());
  expect_no_exact_skip(result);
  EXPECT_NO_THROW(result.best.schedule.validate(instance.trace.task_count(),
                                                instance.trace.steps()));
  const MTSolution check = make_solution(problem, result.best.schedule);
  EXPECT_EQ(check.total(), result.best.total());
}

TEST(Portfolio, AllRacersObserveTheSameSolveInstance) {
  // The whole point of the SolveInstance IR: the race shares one instance
  // (and hence one set of precomputed interval tables) across every member
  // — no per-racer copies.  Probe members record the address they were
  // handed; all must equal the caller's instance.
  const WorkloadInstance workload = racing_instance();
  const SolveInstance instance(workload.trace, workload.machine);

  std::mutex mutex;
  std::vector<const SolveInstance*> observed;
  PortfolioConfig config;
  config.solvers = {"aligned-dp"};
  for (int i = 0; i < 3; ++i) {
    config.extra.push_back(NamedSolver{
        "probe-" + std::to_string(i),
        [&mutex, &observed](const SolveInstance& raced, const CancelToken&) {
          {
            const std::lock_guard<std::mutex> lock(mutex);
            observed.push_back(&raced);
          }
          return solve_greedy(raced);
        }});
  }
  const PortfolioResult result = solve_portfolio(instance, config);
  ASSERT_EQ(result.entries.size(), 4u);
  ASSERT_EQ(observed.size(), 3u);
  for (const SolveInstance* seen : observed) {
    EXPECT_EQ(seen, &instance) << "racer saw a per-racer instance copy";
  }
}

TEST(Portfolio, ExactClassRunsAlignedDpAloneAndSkipsTheRest) {
  // small_instance() is local-only with equal universes, hence equal v_j:
  // inside the aligned DP's exact class (core/aligned_dp.hpp).
  const WorkloadInstance workload = small_instance();
  const SolveInstance instance(workload.trace, workload.machine);
  ASSERT_TRUE(aligned_dp_is_exact(instance));
  bool extra_ran = false;
  PortfolioConfig config;
  config.extra.push_back(NamedSolver{
      "probe", [&extra_ran](const SolveInstance& raced, const CancelToken&) {
        extra_ran = true;
        return solve_greedy(raced);
      }});
  const PortfolioResult result = solve_portfolio(instance, config);
  ASSERT_EQ(result.entries.size(), standard_solvers().size() + 1);
  EXPECT_EQ(result.winner, "aligned-dp");
  EXPECT_FALSE(extra_ran);
  for (const PortfolioEntry& entry : result.entries) {
    if (entry.solver == "aligned-dp") {
      EXPECT_TRUE(entry.ok) << entry.error;
      EXPECT_EQ(entry.total, result.best.total());
    } else {
      EXPECT_FALSE(entry.ok) << entry.solver;
      EXPECT_EQ(entry.error.rfind("skipped", 0), 0u) << entry.error;
    }
  }
}

TEST(Portfolio, ExactClassCertificateIsTheOptimumItself) {
  const WorkloadInstance workload = small_instance();
  const SolveInstance instance(workload.trace, workload.machine);
  PortfolioConfig config;
  config.certify = true;
  const PortfolioResult result = solve_portfolio(instance, config);
  ASSERT_TRUE(result.best.lower_bound.has_value());
  EXPECT_EQ(*result.best.lower_bound, result.best.total());
  EXPECT_EQ(result.best.gap_pct, 0.0);
  // Outside the class the certificate comes from the relaxation again.
  const WorkloadInstance racing = racing_instance();
  const SolveInstance raced(racing.trace, racing.machine);
  const PortfolioResult race = solve_portfolio(raced, config);
  ASSERT_TRUE(race.best.lower_bound.has_value());
  EXPECT_EQ(*race.best.lower_bound, compute_lower_bound(raced).bound);
}

TEST(Portfolio, IsExactNeedsAlignedDpAsARegistryMember) {
  const WorkloadInstance workload = small_instance();
  const SolveInstance instance(workload.trace, workload.machine);
  PortfolioConfig config;
  EXPECT_TRUE(portfolio_is_exact(instance, config)) << "empty = whole line-up";
  config.solvers = {"greedy-w8", "aligned-dp"};
  EXPECT_TRUE(portfolio_is_exact(instance, config));
  config.solvers = {"greedy-w8", "coord-descent"};
  EXPECT_FALSE(portfolio_is_exact(instance, config));
  // The aligned solver as an `extra` member does not qualify, so the
  // line-up really races.
  config.extra.push_back(NamedSolver{
      "aligned-dp", [](const SolveInstance& raced, const CancelToken&) {
        return solve_aligned_dp(raced);
      }});
  EXPECT_FALSE(portfolio_is_exact(instance, config));
  const PortfolioResult result = solve_portfolio(instance, config);
  expect_no_exact_skip(result);
  for (const PortfolioEntry& entry : result.entries) {
    EXPECT_TRUE(entry.ok) << entry.solver << ": " << entry.error;
  }
}

TEST(Portfolio, IsExactFalseForEachExcludedCondition) {
  const WorkloadInstance workload = small_instance();
  const PortfolioConfig config;  // whole line-up, aligned-dp included
  ASSERT_TRUE(portfolio_is_exact(
      SolveInstance(workload.trace, workload.machine), config));

  EvalOptions sequential_hyper;
  sequential_hyper.hyper_upload = UploadMode::kTaskSequential;
  EXPECT_FALSE(portfolio_is_exact(
      SolveInstance(workload.trace, workload.machine, sequential_hyper),
      config))
      << "task-sequential hyper upload";

  MachineSpec unequal = workload.machine;
  unequal.tasks[0].local_init += 1;
  EXPECT_FALSE(portfolio_is_exact(SolveInstance(workload.trace, unequal),
                                  config))
      << "unequal v_j";

  MachineSpec global = workload.machine;
  global.public_context_size = 2;
  global.global_init = 3;
  EXPECT_FALSE(portfolio_is_exact(SolveInstance(workload.trace, global),
                                  config))
      << "global resources";

  EvalOptions changeover;
  changeover.changeover = true;
  EXPECT_FALSE(portfolio_is_exact(
      SolveInstance(workload.trace, workload.machine, changeover), config))
      << "changeover";
}

TEST(Portfolio, WarmStartIsReportedOnlyWhenAMemberReadsIt) {
  const auto warm_for = [](const WorkloadInstance& workload) {
    return MultiTaskSchedule::all_single(workload.trace.task_count(),
                                         workload.trace.steps());
  };
  PortfolioConfig config;
  config.solvers = {"aligned-dp", "coord-descent"};
  config.parallel = false;

  const WorkloadInstance inside = small_instance();
  config.warm_start = {warm_for(inside)};
  EXPECT_FALSE(solve_portfolio(SolveInstance(inside.trace, inside.machine),
                               config)
                   .warm_started)
      << "the exact fast path never reads the seed";

  const WorkloadInstance outside = racing_instance();
  config.warm_start = {warm_for(outside)};
  EXPECT_TRUE(solve_portfolio(SolveInstance(outside.trace, outside.machine),
                              config)
                  .warm_started);
  config.solvers = {"aligned-dp", "greedy-w8"};
  EXPECT_FALSE(solve_portfolio(SolveInstance(outside.trace, outside.machine),
                               config)
                   .warm_started)
      << "no member of this line-up reads the seed";
  config.warm_start.clear();
  config.solvers = {"coord-descent"};
  EXPECT_FALSE(solve_portfolio(SolveInstance(outside.trace, outside.machine),
                               config)
                   .warm_started);
}

TEST(Portfolio, BestBreakdownMatchesReEvaluation) {
  const WorkloadInstance instance = small_instance();
  const SolveInstance problem(instance.trace, instance.machine);
  const PortfolioResult result = solve_portfolio(problem);
  const MTSolution check = make_solution(problem, result.best.schedule);
  EXPECT_EQ(check.breakdown.total, result.best.breakdown.total);
  EXPECT_EQ(check.breakdown.hyper, result.best.breakdown.hyper);
  EXPECT_EQ(check.breakdown.reconfig, result.best.breakdown.reconfig);
}

TEST(Portfolio, ConcurrentFirstUseBuildsTheInstanceTablesOnce) {
  // Race members share one instance, and whichever queries its tables
  // first builds them.  Eight threads asking a fresh instance at once must
  // all get the same tables, equal to a fresh build over the trace.
  const WorkloadInstance workload =
      seeded_workload_instances(4, 512, 256, 0x0CC0)[1];
  const SolveInstance instance(workload.trace, workload.machine);
  constexpr std::size_t kThreads = 8;
  std::vector<const MultiTaskTraceStats*> seen(kThreads, nullptr);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      seen[t] = &instance.stats();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  EXPECT_EQ(&instance.stats(), seen[0]);
  EXPECT_TRUE(*seen[0] == MultiTaskTraceStats(workload.trace));
}

}  // namespace
}  // namespace hyperrec::engine
