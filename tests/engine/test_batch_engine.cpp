#include "engine/batch_engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>

#include "cache/solve_cache.hpp"
#include "core/hierarchical.hpp"
#include "testutil/workload_instances.hpp"

namespace hyperrec::engine {
namespace {

using testutil::seeded_workload_instances;

std::vector<BatchJob> small_batch() {
  std::vector<BatchJob> jobs;
  for (auto& instance : seeded_workload_instances(2, 20, 10, 0xBEEF)) {
    BatchJob job;
    job.trace = std::move(instance.trace);
    job.machine = std::move(instance.machine);
    job.name = instance.name;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(BatchEngine, EmptyBatchYieldsEmptyResult) {
  const BatchEngine engine_instance{BatchEngineConfig{}};
  const BatchResult result = engine_instance.solve({});
  EXPECT_TRUE(result.jobs.empty());
  EXPECT_GT(result.parallelism, 0u);
}

TEST(BatchEngine, ResultsKeepInputOrderAndMatchDirectSolving) {
  const std::vector<BatchJob> jobs = small_batch();
  BatchEngineConfig config;
  config.parallelism = 2;
  config.portfolio.solvers = {"aligned-dp", "coord-descent"};
  const BatchEngine engine_instance(std::move(config));
  const BatchResult result = engine_instance.solve(jobs);

  ASSERT_EQ(result.jobs.size(), jobs.size());
  PortfolioConfig direct;
  direct.solvers = {"aligned-dp", "coord-descent"};
  direct.parallel = false;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobResult& job = result.jobs[i];
    EXPECT_EQ(job.index, i);
    EXPECT_EQ(job.name, jobs[i].name);
    ASSERT_TRUE(job.ok) << job.error;
    const PortfolioResult expected = solve_portfolio(
        SolveInstance(jobs[i].trace, jobs[i].machine, jobs[i].options),
        direct);
    EXPECT_EQ(job.solution.total(), expected.best.total()) << job.name;
    EXPECT_EQ(job.winner, expected.winner) << job.name;
    ASSERT_EQ(job.entries.size(), 2u);
  }
}

TEST(BatchEngine, JobFailureIsIsolatedAndReported) {
  std::vector<BatchJob> jobs = small_batch();
  // Sabotage one job: the machine disagrees with the trace's task count.
  jobs[2].machine = MachineSpec::uniform_local(jobs[2].trace.task_count() + 1,
                                               10);
  BatchEngineConfig config;
  config.portfolio.solvers = {"aligned-dp"};
  const BatchEngine engine_instance(std::move(config));
  const BatchResult result = engine_instance.solve(jobs);

  ASSERT_EQ(result.jobs.size(), jobs.size());
  EXPECT_FALSE(result.jobs[2].ok);
  EXPECT_FALSE(result.jobs[2].error.empty());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(result.jobs[i].ok) << result.jobs[i].error;
  }
}

TEST(BatchEngine, CustomSolverReplacesThePortfolio) {
  const std::vector<BatchJob> jobs = small_batch();
  BatchEngineConfig config;
  config.solver = [](const BatchJob& job, const CancelToken&) {
    MultiTaskSchedule schedule = MultiTaskSchedule::all_single(
        job.trace.task_count(), job.trace.steps());
    return make_solution(SolveInstance(job.trace, job.machine, job.options),
                         std::move(schedule));
  };
  const BatchEngine engine_instance(std::move(config));
  const BatchResult result = engine_instance.solve(jobs);
  for (const JobResult& job : result.jobs) {
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.winner, "custom");
    EXPECT_TRUE(job.entries.empty());
  }
}

TEST(BatchEngine, HierarchicalSolverCanGoFlatThroughTheEngineCache) {
  // The CLI's --hierarchical --cache-capacity wiring: the engine caches each
  // job under its instance key, and the solver, going flat on an in-class
  // instance, asks the same cache for that key inside the engine's compute.
  // The nested request must not wait on its own flight.
  std::vector<BatchJob> jobs = small_batch();
  jobs.push_back(jobs.front());  // a duplicate hits or coalesces
  BatchEngineConfig config;
  config.parallelism = 2;
  config.cache = std::make_shared<cache::SolveCache>();
  config.solver = [cache = config.cache](const BatchJob& job,
                                         const CancelToken& token) {
    const SolveInstance instance(job.trace, job.machine, job.options);
    HierarchicalConfig hier;
    hier.segment = 4;
    hier.cache = cache;
    hier.cancel = token;
    return solve_hierarchical(instance, hier).solution;
  };
  const BatchEngine engine_instance(std::move(config));
  const BatchResult result = engine_instance.solve(jobs);
  ASSERT_EQ(result.jobs.size(), jobs.size());
  for (const JobResult& job : result.jobs) {
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.solution.lower_bound, job.solution.total()) << job.name;
  }
}

TEST(BatchEngine, EngineWideCancelReachesEveryJob) {
  const std::vector<BatchJob> jobs = small_batch();
  BatchEngineConfig config;
  config.cancel = CancelToken::expired();
  config.solver = [](const BatchJob& job, const CancelToken& token) {
    // The per-job token must already observe the engine-wide cancellation.
    HYPERREC_ENSURE(token.cancelled(), "engine token did not propagate");
    MultiTaskSchedule schedule = MultiTaskSchedule::all_single(
        job.trace.task_count(), job.trace.steps());
    return make_solution(SolveInstance(job.trace, job.machine, job.options),
                         std::move(schedule));
  };
  const BatchEngine engine_instance(std::move(config));
  const BatchResult result = engine_instance.solve(jobs);
  for (const JobResult& job : result.jobs) {
    EXPECT_TRUE(job.ok) << job.error;
  }
}

TEST(BatchEngine, ParallelJobsOverlapOnTheSmokeWorkload) {
  // The engine's whole point: N jobs on W>1 workers must finish in less
  // wall-clock than the sum of the per-job times.  The job body sleeps, so
  // overlap shows even on single-core CI machines.
  constexpr auto kJobTime = std::chrono::milliseconds{20};
  std::vector<BatchJob> jobs = small_batch();  // 5 jobs
  auto sleeping_solver = [&](const BatchJob& job, const CancelToken&) {
    std::this_thread::sleep_for(kJobTime);
    MultiTaskSchedule schedule = MultiTaskSchedule::all_single(
        job.trace.task_count(), job.trace.steps());
    return make_solution(SolveInstance(job.trace, job.machine, job.options),
                         std::move(schedule));
  };

  BatchEngineConfig parallel;
  parallel.parallelism = 5;
  parallel.solver = sleeping_solver;
  const BatchResult overlapped = BatchEngine(std::move(parallel)).solve(jobs);

  const auto serial_sum = std::accumulate(
      overlapped.jobs.begin(), overlapped.jobs.end(),
      std::chrono::microseconds{0},
      [](std::chrono::microseconds acc, const JobResult& job) {
        return acc + job.elapsed;
      });
  // 5 jobs x 20 ms: the serial sum is >= 100 ms while five workers finish
  // in ~20 ms; a 2x margin keeps scheduler noise from flaking the test.
  EXPECT_LT(overlapped.elapsed * 2, serial_sum)
      << "batch wall " << overlapped.elapsed.count() << " us vs serial sum "
      << serial_sum.count() << " us";

  BatchEngineConfig serial;
  serial.parallelism = 1;
  serial.solver = sleeping_solver;
  const BatchResult sequential = BatchEngine(std::move(serial)).solve(jobs);
  EXPECT_LT(overlapped.elapsed, sequential.elapsed);
}

}  // namespace
}  // namespace hyperrec::engine
