// Batch solving engine: shard many solve jobs across a thread pool.
//
// The serving-scale counterpart of the one-instance solvers: a BatchEngine
// takes a vector of (trace, machine, options) jobs and overlaps them on its
// own ThreadPool.  Each job is solved by the configured portfolio (see
// portfolio.hpp) — or by a custom per-job solver, the hook experiments and
// tests use to plug in alternative backends.  Results keep input order and
// carry per-job wall time, the winning solver's name and full cost
// breakdown, plus the per-member portfolio entries; io/result_json.hpp
// serialises a BatchResult for downstream tooling.
//
// Concurrency model: the job is the unit of parallelism.  Inside a job the
// portfolio runs serially — a pool worker blocking on more work queued
// behind it would deadlock the shared-queue pool, and sharding jobs already
// saturates the hardware.  A job that throws (infeasible instance, shape
// mismatch) is reported in its JobResult; it never aborts the batch.
//
// Instance construction: a job that actually solves builds exactly one
// SolveInstance (model/instance.hpp) — validation and the shared
// interval-query precomputation come from that object, and every portfolio
// member races it by const reference.  Cache hits never build one: the
// fingerprint is encoded straight off the job triple, keeping the hit path
// at encode-and-lookup cost.
//
// Caching: with a SolveCache configured, each job is keyed by its instance
// fingerprint — repeats are served from the cache, duplicates in flight
// coalesce onto one solve (waiting on an *actively running* computation,
// never on queued work, so the pool cannot deadlock), and optionally a
// same-shape cached schedule warm-starts the iterative solvers on a miss.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/solve_cache.hpp"
#include "engine/portfolio.hpp"
#include "streaming/stream_multiplexer.hpp"
#include "streaming/streaming_engine.hpp"
#include "support/cancel.hpp"

namespace hyperrec::engine {

struct BatchJob {
  MultiTaskTrace trace;
  MachineSpec machine;
  EvalOptions options;
  std::string name;  ///< free-form label echoed into the result/JSON
};

/// Streaming-replay mode for a batch (see BatchEngineConfig::stream).
struct StreamReplayConfig {
  bool enabled = false;
  /// Solve window for the per-job streaming engines.
  std::size_t window = 256;
  streaming::TriggerConfig trigger;
  /// Seed each window re-solve with the previous window's schedule (and
  /// the cache's same-shape incumbent).  On by default — it is the core
  /// streaming economics; turn off for cold-start baselines.  Distinct
  /// from BatchEngineConfig::warm_start, which only governs the offline
  /// per-job path.
  bool warm_start = true;
  /// Multiplexed replay: instead of one inline StreamingEngine per pool
  /// job, ALL jobs stream concurrently through one StreamMultiplexer over
  /// the engine's pool (one stream per job, appends interleaved round-robin
  /// across jobs, re-solves as pool jobs, ONE shared SolveCache).
  /// BatchResult then carries the fleet summary.
  bool multiplex = false;
  /// Shard lanes for the multiplexed replay.
  std::size_t shards = 4;
};

struct BatchEngineConfig {
  /// Worker threads for the batch; 0 means hardware concurrency.
  std::size_t parallelism = 0;
  /// Per-job solving strategy.  `parallel` and `pool` are ignored: inside a
  /// batch the portfolio always runs serially (see file comment).
  PortfolioConfig portfolio;
  /// Engine-wide cancellation; per-job deadlines are linked under it.
  CancelToken cancel;
  /// When set, solves each job instead of the portfolio.  The token passed
  /// in is the job's deadline-linked token.
  std::function<MTSolution(const BatchJob&, const CancelToken&)> solver;
  /// Memoizing solve cache.  When set, duplicate jobs within a batch
  /// coalesce onto one in-flight computation and repeats across batches
  /// return the cached schedule.  Jobs whose token is already expired at
  /// entry are served their fallback incumbent but never memoized.  The
  /// cache key is (trace, machine,
  /// options) only — it does NOT cover the solving configuration — so
  /// share one cache only between engines with an equivalent setup (same
  /// portfolio members and custom `solver`); engines with different
  /// line-ups would serve each other's quality level as authoritative.
  std::shared_ptr<cache::SolveCache> cache;
  /// With a cache: on a miss, feed the most recent same-shape cached
  /// schedule to the portfolio's iterative solvers as their initial
  /// incumbent (see PortfolioConfig::warm_start).
  bool warm_start = false;
  /// Certify fresh portfolio solves: lower_bound + gap_pct stamped on each
  /// job's solution (see PortfolioConfig::certify).  Cache hits reuse
  /// whatever certificate the memoized solution carries; custom-solver and
  /// streaming-replay jobs attach their own or none.
  bool certify = false;
  /// Streaming replay: when enabled, each job's trace is fed step-by-step
  /// through a streaming::StreamingEngine (windowed warm-started re-solves
  /// + final flush) instead of one offline portfolio solve.  The job-level
  /// memoization above is bypassed — the streaming engine caches *window*
  /// instances through the same `cache` instead — and JobResult carries the
  /// per-window reports.
  StreamReplayConfig stream;
};

/// How a job's solution was obtained relative to the cache.
enum class JobCacheOutcome : std::uint8_t {
  kBypass,     ///< no cache configured
  kMiss,       ///< solved fresh (and inserted)
  kHit,        ///< served from the cache
  kCoalesced,  ///< waited on an identical in-flight job
};

[[nodiscard]] const char* to_string(JobCacheOutcome outcome) noexcept;

struct JobResult {
  std::size_t index = 0;  ///< position in the input vector
  std::string name;
  bool ok = false;
  std::string error;  ///< exception text when !ok
  std::string winner;   ///< "cache" when served by a hit or coalesced wait
  MTSolution solution;  ///< valid only when ok
  std::vector<PortfolioEntry> entries;  ///< empty under a custom solver
  std::chrono::microseconds elapsed{0};
  JobCacheOutcome cache = JobCacheOutcome::kBypass;
  /// A warm-start incumbent seeded a member that reads it
  /// (PortfolioResult::warm_started).
  bool warm_started = false;
  bool streamed = false;      ///< solved by streaming replay
  /// One report per window re-solve (streaming replay only).
  std::vector<streaming::WindowReport> windows;
};

struct BatchResult {
  std::vector<JobResult> jobs;  ///< input order
  std::chrono::microseconds elapsed{0};
  std::size_t parallelism = 0;
  /// Cache state snapshotted after the batch (cumulative over the cache's
  /// lifetime, not per batch); zeros when no cache is configured.
  bool cache_enabled = false;
  std::size_t cache_capacity = 0;
  std::size_t cache_size = 0;
  cache::SolveCacheStats cache_stats;
  /// Multiplexed streaming replay only: fleet-wide counters and one row
  /// per stream, in job order (io/result_json serialises them as the
  /// "fleet" object).
  std::optional<streaming::FleetStats> fleet;
  std::vector<streaming::StreamSummary> fleet_streams;
};

class BatchEngine {
 public:
  explicit BatchEngine(BatchEngineConfig config = {});

  /// Solves all jobs, overlapping them across the engine's pool.  Never
  /// throws for per-job failures; see JobResult::ok.
  [[nodiscard]] BatchResult solve(const std::vector<BatchJob>& jobs) const;

  [[nodiscard]] std::size_t parallelism() const noexcept {
    return pool_->thread_count();
  }

 private:
  void solve_multiplexed(const std::vector<BatchJob>& jobs,
                         BatchResult& result) const;

  BatchEngineConfig config_;
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace hyperrec::engine
