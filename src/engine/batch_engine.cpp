#include "engine/batch_engine.hpp"

#include <algorithm>
#include <future>
#include <optional>
#include <utility>

namespace hyperrec::engine {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

const char* to_string(JobCacheOutcome outcome) noexcept {
  switch (outcome) {
    case JobCacheOutcome::kBypass: return "bypass";
    case JobCacheOutcome::kMiss: return "miss";
    case JobCacheOutcome::kHit: return "hit";
    case JobCacheOutcome::kCoalesced: return "coalesced";
  }
  return "bypass";
}

BatchEngine::BatchEngine(BatchEngineConfig config)
    : config_(std::move(config)),
      pool_(std::make_unique<ThreadPool>(config_.parallelism)) {}

BatchResult BatchEngine::solve(const std::vector<BatchJob>& jobs) const {
  BatchResult result;
  result.parallelism = pool_->thread_count();
  result.jobs.resize(jobs.size());
  const Clock::time_point batch_start = Clock::now();

  if (config_.stream.enabled && config_.stream.multiplex) {
    solve_multiplexed(jobs, result);
    result.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - batch_start);
    return result;
  }

  // Fresh (uncached) solve; fills the job's winner/entries/warm_started —
  // only after the solve returns, so a throwing job keeps the empty
  // winner/flags the schema guarantees for failures.  This is the one place
  // a job's SolveInstance is built: every portfolio member and the
  // warm-start validator share its precomputation, while cache hits (which
  // never reach this lambda) stay at fingerprint-lookup cost and the custom
  // solver hook skips the build entirely.
  auto solve_fresh = [this](const BatchJob& job, const CancelToken& token,
                            JobResult& out) {
    if (config_.solver) {
      MTSolution fresh = config_.solver(job, token);
      out.winner = "custom";
      return fresh;
    }
    const SolveInstance instance(job.trace, job.machine, job.options);
    PortfolioConfig per_job = config_.portfolio;
    per_job.parallel = false;  // the job is the unit of parallelism
    per_job.pool = nullptr;
    per_job.deadline = std::chrono::milliseconds{0};  // already in token
    per_job.certify = config_.certify;
    // A caller-preset portfolio warm_start takes precedence — appending the
    // cached incumbent next to it would trip the portfolio's one-seed
    // contract and fail the job.
    if (config_.warm_start && config_.cache != nullptr &&
        per_job.warm_start.empty()) {
      if (auto warm = config_.cache->warm_start_for(instance)) {
        per_job.warm_start.push_back(std::move(*warm));
      }
    }
    PortfolioResult race = solve_portfolio(instance, per_job, token);
    // Only a member that reads the seed makes this a warm start; the exact
    // fast path (aligned-dp alone) never does.
    out.warm_started = race.warm_started;
    out.winner = std::move(race.winner);
    out.entries = std::move(race.entries);
    return std::move(race.best);
  };

  // Streaming replay: feed the job's trace step-by-step through a
  // per-job StreamingEngine.  The per-window deadline is the portfolio
  // deadline; the stream as a whole is bounded only by the engine-wide
  // cancel (a per-job deadline would silently truncate long streams).
  auto solve_streamed = [this](const BatchJob& job, JobResult& out) {
    HYPERREC_ENSURE(job.trace.task_count() > 0 && job.trace.synchronized(),
                    "streaming replay needs a synchronized trace");
    out.streamed = true;
    streaming::StreamingConfig stream_config;
    stream_config.window = config_.stream.window;
    stream_config.trigger = config_.stream.trigger;
    stream_config.portfolio = config_.portfolio;
    stream_config.cache = config_.cache;
    stream_config.warm_start = config_.stream.warm_start;
    stream_config.cancel = CancelToken::linked(config_.cancel);
    streaming::StreamingEngine stream(job.machine, job.options, stream_config);
    const std::size_t n = job.trace.steps();
    for (std::size_t i = 0; i < n; ++i) {
      stream.append_step(job.trace.step(i));
    }
    stream.flush();
    // Window reports are diagnostics: publish them before asking for the
    // final solution, so a stream that never managed to publish a schedule
    // (cancelled, every window failed) still reports its per-window errors.
    out.windows = stream.windows();
    MTSolution solution = stream.current_solution();
    out.winner = "streaming";
    return solution;
  };

  auto run_job = [this, &jobs, &result, &solve_fresh,
                  &solve_streamed](std::size_t i) {
    const BatchJob& job = jobs[i];
    JobResult& out = result.jobs[i];
    out.index = i;
    out.name = job.name;
    if (config_.stream.enabled) {
      const Clock::time_point start = Clock::now();
      try {
        out.solution = solve_streamed(job, out);
        out.ok = true;
      } catch (const std::exception& error) {
        out.error = error.what();
      }
      out.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - start);
      return;
    }
    // Per-job token: fires on the engine-wide token or the per-job deadline,
    // whichever comes first.
    const CancelToken token =
        config_.portfolio.deadline.count() > 0
            ? CancelToken::linked(config_.cancel,
                                  Clock::now() + config_.portfolio.deadline)
            : CancelToken::linked(config_.cancel);
    const Clock::time_point start = Clock::now();
    bool consulted_cache = false;
    cache::CacheOutcome outcome = cache::CacheOutcome::kMiss;
    try {
      if (config_.cache != nullptr) {
        consulted_cache = true;
        // Key straight off the triple: a cache hit must stay at
        // encode-and-lookup cost, so the instance (trace copy + precompute)
        // is only built inside the compute closure, on a genuine miss.
        const cache::InstanceKey key =
            cache::make_instance_key(job.trace, job.machine, job.options);
        out.solution = config_.cache->get_or_compute_guarded(
            key,
            [&]() {
              // A token that is already expired at entry makes every
              // member return its no-work fallback (typically the
              // single-interval schedule) — serve that to this job and
              // its coalesced waiters, but never memoize it as the
              // instance's solution.  A per-job deadline firing *mid-run*
              // is the normal serving regime (incumbents are genuine
              // portfolio answers at the configured budget) and stays
              // cacheable; an engine-wide cancel observed by the end of
              // the solve means the whole batch was aborted, so that
              // result is rushed and is not memoized either — this also
              // closes the race where the cancel lands between the entry
              // check and the first member starting work.
              const bool degenerate = token.cancelled();
              MTSolution fresh = solve_fresh(job, token, out);
              const bool aborted =
                  config_.cancel.cancellable() && config_.cancel.cancelled();
              return cache::ComputeResult{std::move(fresh),
                                          !degenerate && !aborted};
            },
            &outcome);
      } else {
        out.solution = solve_fresh(job, token, out);
      }
      out.ok = true;
    } catch (const std::exception& error) {
      out.error = error.what();
    }
    if (consulted_cache) {
      // get_or_compute reports its path in `outcome` before computing or
      // waiting, so this mapping is valid even when the job failed — a
      // thrown solve is a "miss"/"coalesced", never a "bypass".
      switch (outcome) {
        case cache::CacheOutcome::kMiss:
          out.cache = JobCacheOutcome::kMiss;
          break;
        case cache::CacheOutcome::kHit:
          out.cache = JobCacheOutcome::kHit;
          break;
        case cache::CacheOutcome::kCoalesced:
          out.cache = JobCacheOutcome::kCoalesced;
          break;
      }
      if (out.ok && out.cache != JobCacheOutcome::kMiss) out.winner = "cache";
    }
    out.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        Clock::now() - start);
  };

  std::vector<std::future<void>> futures;
  futures.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    futures.push_back(pool_->submit([&run_job, i]() { run_job(i); }));
  }
  for (auto& future : futures) future.get();

  result.elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - batch_start);
  if (config_.cache != nullptr) {
    result.cache_enabled = true;
    result.cache_capacity = config_.cache->capacity();
    result.cache_size = config_.cache->size();
    result.cache_stats = config_.cache->stats();
  }
  return result;
}

void BatchEngine::solve_multiplexed(const std::vector<BatchJob>& jobs,
                                    BatchResult& result) const {
  streaming::MultiplexerConfig mux_config;
  mux_config.shards = config_.stream.shards;
  mux_config.pool = pool_.get();
  mux_config.cache = config_.cache;  // nullptr: the mux creates the shared one
  mux_config.cancel = config_.cancel;
  mux_config.stream.window = config_.stream.window;
  mux_config.stream.trigger = config_.stream.trigger;
  mux_config.stream.portfolio = config_.portfolio;
  mux_config.stream.warm_start = config_.stream.warm_start;
  streaming::StreamMultiplexer mux(std::move(mux_config));

  // One stream per job; a job the multiplexer cannot open (no tasks,
  // unsynchronized trace) fails alone, like any other per-job error.
  std::vector<std::optional<std::size_t>> streams(jobs.size());
  std::size_t max_steps = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    result.jobs[i].index = i;
    result.jobs[i].name = jobs[i].name;
    result.jobs[i].streamed = true;
    try {
      HYPERREC_ENSURE(
          jobs[i].trace.task_count() > 0 && jobs[i].trace.synchronized(),
          "streaming replay needs a synchronized trace");
      streams[i] = mux.open_stream(jobs[i].machine, jobs[i].options);
      max_steps = std::max(max_steps, jobs[i].trace.steps());
    } catch (const std::exception& error) {
      result.jobs[i].error = error.what();
    }
  }

  // Interleave appends round-robin across jobs: every stream is live at
  // once, so same-window jobs genuinely coalesce on the shared cache.
  for (std::size_t s = 0; s < max_steps; ++s) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (streams[i].has_value() && s < jobs[i].trace.steps()) {
        mux.append_step(*streams[i], jobs[i].trace.step(s));
      }
    }
  }
  mux.flush_all();
  mux.drain();

  const std::vector<streaming::StreamSummary> rows = mux.stream_summaries();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!streams[i].has_value()) continue;
    JobResult& out = result.jobs[i];
    const streaming::StreamingEngine& engine = mux.engine(*streams[i]);
    out.windows = engine.windows();
    if (rows[*streams[i]].poisoned) {
      const auto failure = mux.first_failure();
      out.error = failure.has_value() && failure->stream == *streams[i]
                      ? "stream poisoned: " + failure->what
                      : "stream poisoned";
      continue;
    }
    try {
      out.solution = engine.current_solution();
      out.winner = "streaming";
      out.ok = true;
    } catch (const std::exception& error) {
      out.error = error.what();
    }
  }

  result.fleet = mux.fleet_stats();
  result.fleet_streams = rows;
  result.cache_enabled = true;
  result.cache_capacity = mux.cache()->capacity();
  result.cache_size = mux.cache()->size();
  result.cache_stats = mux.cache()->stats();
}

}  // namespace hyperrec::engine
