// BatchEngine × SolveCache: within-batch duplicate coalescing, cross-batch
// hits with bit-identical solutions, JSON-visible stats, and warm-started
// portfolio races.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "cache/solve_cache.hpp"
#include "engine/batch_engine.hpp"
#include "io/result_json.hpp"
#include "testutil/workload_instances.hpp"

namespace hyperrec::engine {
namespace {

std::vector<BatchJob> jobs_from_instances(std::size_t tasks, std::size_t steps,
                                          std::size_t universe,
                                          std::uint64_t seed) {
  std::vector<BatchJob> jobs;
  for (auto& instance :
       testutil::seeded_workload_instances(tasks, steps, universe, seed)) {
    BatchJob job;
    job.trace = std::move(instance.trace);
    job.machine = std::move(instance.machine);
    job.name = instance.name;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

BatchEngineConfig cached_config(std::shared_ptr<cache::SolveCache> cache) {
  BatchEngineConfig config;
  config.portfolio.solvers = {"aligned-dp", "greedy-w8"};
  config.cache = std::move(cache);
  return config;
}

TEST(CacheIntegration, CrossBatchRepeatsAreServedFromTheCache) {
  auto cache = std::make_shared<cache::SolveCache>(
      cache::SolveCacheConfig{.capacity = 64});
  const BatchEngine engine(cached_config(cache));
  const std::vector<BatchJob> jobs = jobs_from_instances(2, 16, 8, 0xCAFE);

  const BatchResult first = engine.solve(jobs);
  for (const JobResult& job : first.jobs) {
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.cache, JobCacheOutcome::kMiss) << job.name;
  }
  EXPECT_TRUE(first.cache_enabled);
  EXPECT_EQ(first.cache_stats.hits, 0u);
  EXPECT_EQ(first.cache_stats.misses, jobs.size());

  const BatchResult second = engine.solve(jobs);
  ASSERT_EQ(second.jobs.size(), first.jobs.size());
  for (std::size_t i = 0; i < second.jobs.size(); ++i) {
    const JobResult& warm = second.jobs[i];
    const JobResult& cold = first.jobs[i];
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.cache, JobCacheOutcome::kHit) << warm.name;
    EXPECT_EQ(warm.winner, "cache");
    // Bit-identical: same cost breakdown and the very same schedule.
    EXPECT_EQ(warm.solution.total(), cold.solution.total());
    ASSERT_EQ(warm.solution.schedule.tasks.size(),
              cold.solution.schedule.tasks.size());
    for (std::size_t j = 0; j < warm.solution.schedule.tasks.size(); ++j) {
      EXPECT_EQ(warm.solution.schedule.tasks[j].starts(),
                cold.solution.schedule.tasks[j].starts());
    }
  }
  EXPECT_EQ(second.cache_stats.hits, jobs.size());
  EXPECT_EQ(second.cache_size, jobs.size());
}

TEST(CacheIntegration, DuplicateJobsWithinABatchCostOneSolve) {
  auto cache = std::make_shared<cache::SolveCache>(
      cache::SolveCacheConfig{.capacity = 16});
  BatchEngineConfig config;
  config.parallelism = 4;
  config.cache = cache;
  std::atomic<int> solves{0};
  config.solver = [&solves](const BatchJob& job, const CancelToken&) {
    solves.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    MTSolution solution;
    solution.schedule = MultiTaskSchedule::all_single(job.trace.task_count(),
                                                      job.trace.steps());
    solution.breakdown.total = 11;
    return solution;
  };
  const BatchEngine engine(std::move(config));

  std::vector<BatchJob> jobs = jobs_from_instances(2, 12, 6, 0xD0);
  jobs.resize(1);
  // Eight copies of the same instance in one batch.
  for (int i = 0; i < 7; ++i) {
    BatchJob copy = jobs.front();
    copy.name += "-dup" + std::to_string(i);
    jobs.push_back(std::move(copy));
  }

  const BatchResult result = engine.solve(jobs);
  EXPECT_EQ(solves.load(), 1) << "duplicates must coalesce onto one solve";
  std::size_t misses = 0;
  std::size_t served = 0;
  for (const JobResult& job : result.jobs) {
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.solution.total(), 11);
    if (job.cache == JobCacheOutcome::kMiss) ++misses;
    if (job.cache == JobCacheOutcome::kCoalesced ||
        job.cache == JobCacheOutcome::kHit) {
      ++served;
    }
  }
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(served, jobs.size() - 1);
}

TEST(CacheIntegration, WarmStartSeedsSecondBatchOfSameShape) {
  auto cache = std::make_shared<cache::SolveCache>(
      cache::SolveCacheConfig{.capacity = 64});
  BatchEngineConfig config;
  // Iterative members so the warm start has someone to seed; tiny budgets
  // keep the test fast.
  config.portfolio.solvers = {"aligned-dp", "coord-descent"};
  config.cache = cache;
  config.warm_start = true;
  const BatchEngine engine(std::move(config));

  // Same shape, different seeds → cross-batch near-misses, not hits.
  std::vector<BatchJob> first = jobs_from_instances(2, 14, 8, 1);
  std::vector<BatchJob> second = jobs_from_instances(2, 14, 8, 2);
  // Unequal v_j keep the jobs outside the aligned DP's exact class, so
  // coordinate descent runs and consumes the seed.
  for (std::vector<BatchJob>* batch : {&first, &second}) {
    for (BatchJob& job : *batch) job.machine.tasks[0].local_init += 1;
  }

  const BatchResult cold = engine.solve(first);
  for (const JobResult& job : cold.jobs) ASSERT_TRUE(job.ok) << job.error;

  const BatchResult warm = engine.solve(second);
  for (const JobResult& job : warm.jobs) {
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.cache, JobCacheOutcome::kMiss) << job.name;
    EXPECT_TRUE(job.warm_started)
        << job.name << ": a same-shape incumbent was available";
  }
  EXPECT_GE(warm.cache_stats.warm_hits, warm.jobs.size());
}

TEST(CacheIntegration, FastPathJobsDoNotClaimAWarmStart) {
  // The same set-up on in-class jobs (local-only, equal universes): the
  // cache still hands out the same-shape seed, but the portfolio runs the
  // aligned DP alone, which never reads it.
  auto cache = std::make_shared<cache::SolveCache>(
      cache::SolveCacheConfig{.capacity = 64});
  BatchEngineConfig config;
  config.portfolio.solvers = {"aligned-dp", "coord-descent"};
  config.cache = cache;
  config.warm_start = true;
  const BatchEngine engine(std::move(config));

  const BatchResult cold = engine.solve(jobs_from_instances(2, 14, 8, 1));
  for (const JobResult& job : cold.jobs) ASSERT_TRUE(job.ok) << job.error;
  const BatchResult warm = engine.solve(jobs_from_instances(2, 14, 8, 2));
  for (const JobResult& job : warm.jobs) {
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.cache, JobCacheOutcome::kMiss) << job.name;
    EXPECT_EQ(job.winner, "aligned-dp") << job.name;
    EXPECT_FALSE(job.warm_started) << job.name;
  }
  EXPECT_GE(warm.cache_stats.warm_hits, warm.jobs.size());
}

TEST(CacheIntegration, CancelTruncatedSolvesAreNotMemoized) {
  // An engine whose token has already fired still answers every job (the
  // iterative solvers return fallback incumbents), but those truncated
  // answers must not poison the cache for future full-quality solves.
  auto cache = std::make_shared<cache::SolveCache>(
      cache::SolveCacheConfig{.capacity = 16});
  BatchEngineConfig expired_config;
  expired_config.portfolio.solvers = {"coord-descent"};
  expired_config.cache = cache;
  expired_config.cancel = CancelToken::expired();
  const BatchEngine expired_engine(std::move(expired_config));

  std::vector<BatchJob> jobs = jobs_from_instances(2, 12, 6, 0xBEEF);
  jobs.resize(2);
  const BatchResult truncated = expired_engine.solve(jobs);
  for (const JobResult& job : truncated.jobs) {
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.cache, JobCacheOutcome::kMiss);
  }
  EXPECT_EQ(cache->size(), 0u)
      << "cancel-truncated incumbents must not enter the cache";

  // A healthy engine sharing the cache now computes real solutions and
  // memoizes them.
  const BatchEngine healthy(cached_config(cache));
  const BatchResult fresh = healthy.solve(jobs);
  for (const JobResult& job : fresh.jobs) {
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.cache, JobCacheOutcome::kMiss);
  }
  EXPECT_EQ(cache->size(), jobs.size());
}

TEST(CacheIntegration, CacheStatsSurfaceInResultJson) {
  auto cache = std::make_shared<cache::SolveCache>(
      cache::SolveCacheConfig{.capacity = 32});
  const BatchEngine engine(cached_config(cache));
  std::vector<BatchJob> jobs = jobs_from_instances(2, 12, 6, 0x9);
  jobs.resize(2);
  (void)engine.solve(jobs);
  const BatchResult result = engine.solve(jobs);

  const std::string json = io::batch_result_to_json(result);
  EXPECT_NE(json.find("\"cache\":{\"enabled\":true"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"hits\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache\":\"hit\""), std::string::npos) << json;
}

TEST(CacheIntegration, WithoutACacheJobsReportBypass) {
  BatchEngineConfig config;
  config.portfolio.solvers = {"aligned-dp"};
  const BatchEngine engine(std::move(config));
  std::vector<BatchJob> jobs = jobs_from_instances(2, 12, 6, 0x7);
  jobs.resize(1);
  const BatchResult result = engine.solve(jobs);
  ASSERT_TRUE(result.jobs.front().ok) << result.jobs.front().error;
  EXPECT_EQ(result.jobs.front().cache, JobCacheOutcome::kBypass);
  EXPECT_FALSE(result.cache_enabled);
}

}  // namespace
}  // namespace hyperrec::engine
