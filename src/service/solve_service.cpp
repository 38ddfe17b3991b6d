#include "service/solve_service.hpp"

#include <algorithm>
#include <cstdio>
#include <future>
#include <sstream>
#include <utility>

#include "io/result_json.hpp"
#include "streaming/trigger_spec.hpp"
#include "support/ensure.hpp"

namespace hyperrec::service {

namespace {

using Clock = std::chrono::steady_clock;

engine::BatchEngineConfig make_engine_config(
    const ServiceConfig& config,
    const std::shared_ptr<cache::SolveCache>& cache) {
  engine::BatchEngineConfig engine;
  // One worker thread per engine solve: the service's queue workers are the
  // unit of parallelism, each solving one-job batches.
  engine.parallelism = 1;
  engine.portfolio.solvers = config.portfolio;
  engine.portfolio.deadline = config.deadline;
  engine.cache = cache;
  engine.warm_start = config.warm_start;
  engine.certify = config.certify;
  return engine;
}

/// Fixed four-decimal rendering for statz gap percentages — finite
/// non-negative ratios of integral costs, so NaN/Inf cannot occur and the
/// output stays a plain JSON number (matching result_json's "gap_pct").
std::string fixed4(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4f", value);
  return buffer;
}

streaming::MultiplexerConfig make_mux_config(
    const ServiceConfig& config,
    const std::shared_ptr<cache::SolveCache>& cache) {
  streaming::MultiplexerConfig mux;
  mux.shards = config.mux_shards;
  mux.cache = cache;
  mux.stream.window = config.stream_window;
  // Strict parse at construction: a daemon flagged with a malformed or
  // typo'd trigger spec must die loudly at startup, not run the wrong
  // re-solve policy for its whole lifetime.
  mux.stream.trigger = streaming::parse_trigger_spec(config.stream_trigger);
  mux.stream.portfolio.solvers = config.portfolio;
  mux.stream.portfolio.deadline = config.deadline;
  return mux;
}

}  // namespace

SolveService::SolveService(ServiceConfig config)
    : config_(std::move(config)),
      cache_(std::make_shared<cache::SolveCache>(config_.cache)),
      engine_(std::make_unique<engine::BatchEngine>(
          make_engine_config(config_, cache_))),
      mux_(std::make_unique<streaming::StreamMultiplexer>(
          make_mux_config(config_, cache_))),
      tenants_(config_.default_quota, config_.tenant_quotas),
      queue_(config_.queue_capacity),
      started_(Clock::now()) {
  HYPERREC_ENSURE(config_.workers >= 1, "service needs at least one worker");
  HYPERREC_ENSURE(config_.queue_capacity >= 1,
                  "queue capacity must be at least 1");
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SolveService::~SolveService() { shutdown(); }

void SolveService::shutdown() {
  std::call_once(shutdown_once_, [this] {
    draining_.store(true, std::memory_order_release);
    // close() wakes the workers but lets them pop everything already
    // accepted — an admitted job always gets its answer.
    queue_.close();
    for (std::thread& worker : workers_) worker.join();
    // Producers are rejected (draining) and in-flight appends hold the
    // shared lock; take it exclusively, then flush and drain the fleet.
    const WriterMutexLock lock(streams_mutex_);
    mux_->flush_all();
    mux_->drain();
  });
}

std::string SolveService::handle_line(const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& error) {
    return error_line("", error.what());
  }
  try {
    return handle_request(request);
  } catch (const std::exception& error) {
    return error_line(request.id, error.what());
  }
}

std::string SolveService::handle_request(const Request& request) {
  switch (request.op) {
    case Op::kSolve: return handle_solve(request);
    case Op::kStreamOpen: return handle_stream_open(request);
    case Op::kStreamAppend: return handle_stream_append(request);
    case Op::kStreamFlush: return handle_stream_flush(request);
    case Op::kStreamResult: return handle_stream_result(request);
    case Op::kStatz: return statz_json();
    case Op::kShutdown:
      shutdown();
      return ack_line(request.id);
  }
  return error_line(request.id, "unhandled op");
}

std::string SolveService::handle_solve(const Request& request) {
  if (draining()) {
    tenants_.record_draining(request.tenant);
    return reject_line(request.id, RejectReason::kDraining, {});
  }
  const Admission verdict = tenants_.admit(request.tenant, Clock::now());
  if (!verdict.admitted) {
    return reject_line(request.id, RejectReason::kRate, verdict.retry_after);
  }

  Pending pending;
  pending.job = make_job(request.job);
  pending.id = request.id;
  pending.tenant = request.tenant;
  pending.priority = request.priority;
  pending.depth_at_admission = queue_.depth();
  pending.enqueued = Clock::now();
  pending.response = std::make_shared<std::promise<std::string>>();
  std::future<std::string> response = pending.response->get_future();

  if (!queue_.try_push(std::move(pending), request.priority)) {
    tenants_.record_backpressure(request.tenant);
    return reject_line(request.id, RejectReason::kBackpressure,
                       config_.backpressure_retry);
  }
  tenants_.record_admitted(request.tenant);
  return response.get();
}

void SolveService::worker_loop() {
  while (auto pending = queue_.pop()) {
    const Clock::time_point dequeued = Clock::now();
    const auto wait = std::chrono::duration_cast<std::chrono::microseconds>(
        dequeued - pending->enqueued);
    // Every dequeued job counts: recording only after a successful solve
    // would bias the queue-wait quantiles toward successes.
    queue_wait_.record(wait);
    try {
      const engine::BatchResult result = engine_->solve({pending->job});
      if (!result.jobs.empty()) {
        const engine::JobResult& job = result.jobs.front();
        solve_latency_.record(job.elapsed);
        if (job.ok) {
          tenants_.record_completed(pending->tenant);
          const MutexLock lock(wins_mutex_);
          solver_wins_[job.winner] += 1;
          if (job.solution.gap_pct.has_value()) {
            certified_ += 1;
            gap_sum_pct_ += *job.solution.gap_pct;
            gap_max_pct_ = std::max(gap_max_pct_, *job.solution.gap_pct);
          }
        } else {
          tenants_.record_failed(pending->tenant);
        }
      }
      io::ServiceFields fields;
      fields.tenant = pending->tenant;
      fields.priority = pending->priority;
      fields.queue_depth = pending->depth_at_admission;
      fields.wait = wait;
      std::string document = io::batch_result_to_json(result, &fields);
      // The file writer ends documents with '\n'; on the wire the newline
      // is the line delimiter and the transport owns it.
      while (!document.empty() && document.back() == '\n') document.pop_back();
      pending->response->set_value(std::move(document));
    } catch (const std::exception& error) {
      tenants_.record_failed(pending->tenant);
      pending->response->set_value(error_line(pending->id, error.what()));
    }
  }
}

std::string SolveService::handle_stream_open(const Request& request) {
  if (draining()) {
    tenants_.record_draining(request.tenant);
    return reject_line(request.id, RejectReason::kDraining, {});
  }
  if (!request.trigger.empty()) {
    // Strict parse first — a malformed spec is an error naming the item
    // (the daemon-side counterpart of the CLI's loud rejection)...
    (void)streaming::parse_trigger_spec(request.trigger);
    // ...and a VALID spec must match the fleet policy: the multiplexer
    // runs one trigger config for every stream, so a divergent request is
    // answered honestly instead of silently overridden.
    if (request.trigger != config_.stream_trigger) {
      return error_line(request.id,
                        "stream trigger \"" + request.trigger +
                            "\" does not match the daemon's fleet-wide "
                            "spec \"" + config_.stream_trigger +
                            "\" (per-stream overrides are not supported)");
    }
  }
  const Admission verdict = tenants_.admit(request.tenant, Clock::now());
  if (!verdict.admitted) {
    return reject_line(request.id, RejectReason::kRate, verdict.retry_after);
  }
  tenants_.record_admitted(request.tenant);

  const WriterMutexLock lock(streams_mutex_);
  const std::size_t id =
      mux_->open_stream(MachineSpec::local_only(request.universes));
  streams_.emplace(id, StreamInfo{request.tenant, request.universes});
  return stream_opened_line(request.id, id);
}

std::string SolveService::handle_stream_append(const Request& request) {
  if (draining()) {
    tenants_.record_draining(request.tenant);
    return reject_line(request.id, RejectReason::kDraining, {});
  }
  const ReaderMutexLock lock(streams_mutex_);
  const auto it = streams_.find(request.stream);
  if (it == streams_.end()) {
    return error_line(request.id,
                      "unknown stream " + std::to_string(request.stream));
  }
  const StreamInfo& info = it->second;
  if (request.step.size() != info.universes.size()) {
    return error_line(request.id,
                      "step must carry exactly one requirement per task");
  }
  std::vector<ContextRequirement> step;
  step.reserve(request.step.size());
  for (std::size_t j = 0; j < request.step.size(); ++j) {
    const StepRequirement& req = request.step[j];
    if (req.demand > 0) {
      // Streams run on local-only machines (no private-global pool); a
      // demand would poison the stream's lane deep inside the engine, so
      // answer at the boundary instead.
      return error_line(request.id,
                        "stream machines have no private-global pool; "
                        "demand must be 0");
    }
    DynamicBitset local(info.universes[j]);
    for (const std::size_t bit : req.bits) {
      if (bit >= info.universes[j]) {
        return error_line(request.id,
                          "requirement bit " + std::to_string(bit) +
                              " outside task " + std::to_string(j) +
                              "'s universe");
      }
      local.set(bit);
    }
    step.push_back(ContextRequirement{std::move(local), 0});
  }
  tenants_.record_append(info.tenant);
  mux_->append_step(request.stream, std::move(step));
  return ack_line(request.id);
}

std::string SolveService::handle_stream_flush(const Request& request) {
  const ReaderMutexLock lock(streams_mutex_);
  if (streams_.find(request.stream) == streams_.end()) {
    return error_line(request.id,
                      "unknown stream " + std::to_string(request.stream));
  }
  mux_->flush(request.stream);
  return ack_line(request.id);
}

std::string SolveService::handle_stream_result(const Request& request) {
  // Exclusive: drain() needs producers paused (appends hold the shared
  // lock), and engine-backed summaries need a quiesced fleet.
  const WriterMutexLock lock(streams_mutex_);
  if (streams_.find(request.stream) == streams_.end()) {
    return error_line(request.id,
                      "unknown stream " + std::to_string(request.stream));
  }
  mux_->drain();
  const std::vector<streaming::StreamSummary> rows =
      mux_->stream_summaries();
  HYPERREC_ENSURE(request.stream < rows.size(),
                  "stream summary missing after drain");
  const streaming::StreamSummary& row = rows[request.stream];
  std::ostringstream os;
  os << "{\"schema\":\"hyperrec-service\",\"version\":1,\"id\":"
     << io::json_quote(request.id) << ",\"ok\":true,\"stream\":" << row.id
     << ",\"steps\":" << row.steps << ",\"resolves\":" << row.resolves
     << ",\"failed_windows\":" << row.failed_windows
     << ",\"epoch\":" << row.epoch
     << ",\"poisoned\":" << (row.poisoned ? "true" : "false")
     << ",\"published_cost\":";
  if (row.published_cost.has_value()) {
    os << *row.published_cost;
  } else {
    os << "null";
  }
  os << '}';
  return os.str();
}

std::string SolveService::statz_json() const {
  const cache::SolveCacheStats cache_stats = cache_->stats();
  const streaming::FleetStats fleet = mux_->fleet_stats();
  const auto uptime = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - started_);

  // Tenant rows come pre-aggregated and the registry's counters obey
  // received == admitted + rejected_* per tenant; the request totals are
  // their sums, so the same identity holds fleet-wide.
  const auto tenant_rows = tenants_.snapshot();
  TenantCounters totals;
  for (const auto& [name, counters] : tenant_rows) {
    totals.received += counters.received;
    totals.admitted += counters.admitted;
    totals.rejected_rate += counters.rejected_rate;
    totals.rejected_backpressure += counters.rejected_backpressure;
    totals.rejected_draining += counters.rejected_draining;
    totals.completed += counters.completed;
    totals.failed += counters.failed;
    totals.appends += counters.appends;
  }

  std::ostringstream os;
  os << "{\"schema\":\"hyperrec-statz\",\"version\":1"
     << ",\"uptime_us\":" << uptime.count()
     << ",\"draining\":" << (draining() ? "true" : "false")
     << ",\"queue\":{\"depth\":" << queue_.depth()
     << ",\"capacity\":" << queue_.capacity()
     << ",\"peak\":" << queue_.peak_depth() << '}'
     << ",\"requests\":{\"received\":" << totals.received
     << ",\"admitted\":" << totals.admitted
     << ",\"rejected_rate\":" << totals.rejected_rate
     << ",\"rejected_backpressure\":" << totals.rejected_backpressure
     << ",\"rejected_draining\":" << totals.rejected_draining
     << ",\"completed\":" << totals.completed
     << ",\"failed\":" << totals.failed
     << ",\"appends\":" << totals.appends << '}'
     << ",\"latency\":{\"solve\":{\"count\":" << solve_latency_.count()
     << ",\"p50_us\":" << solve_latency_.quantile(0.50)
     << ",\"p99_us\":" << solve_latency_.quantile(0.99)
     << ",\"max_us\":" << solve_latency_.max() << '}'
     << ",\"queue_wait\":{\"count\":" << queue_wait_.count()
     << ",\"p50_us\":" << queue_wait_.quantile(0.50)
     << ",\"p99_us\":" << queue_wait_.quantile(0.99)
     << ",\"max_us\":" << queue_wait_.max() << "}}"
     << ",\"cache\":{\"capacity\":" << cache_->capacity()
     << ",\"size\":" << cache_->size()
     << ",\"inflight\":" << cache_->inflight()
     << ",\"hits\":" << cache_stats.hits
     << ",\"misses\":" << cache_stats.misses
     << ",\"coalesced\":" << cache_stats.coalesced
     << ",\"coalesced_failures\":" << cache_stats.coalesced_failures
     << ",\"insertions\":" << cache_stats.insertions
     << ",\"refreshes\":" << cache_stats.refreshes
     << ",\"evictions\":" << cache_stats.evictions
     << ",\"expirations\":" << cache_stats.expirations
     << ",\"collisions\":" << cache_stats.collisions
     << ",\"warm_hits\":" << cache_stats.warm_hits << '}';

  os << ",\"solvers\":[";
  std::uint64_t certified = 0;
  double gap_sum = 0.0;
  double gap_max = 0.0;
  {
    const MutexLock lock(wins_mutex_);
    bool first = true;
    for (const auto& [name, wins] : solver_wins_) {
      if (!first) os << ',';
      first = false;
      os << "{\"name\":" << io::json_quote(name) << ",\"wins\":" << wins << '}';
    }
    certified = certified_;
    gap_sum = gap_sum_pct_;
    gap_max = gap_max_pct_;
  }
  os << "],\"certificates\":{\"count\":" << certified
     << ",\"gap_avg_pct\":"
     << fixed4(certified > 0 ? gap_sum / static_cast<double>(certified) : 0.0)
     << ",\"gap_max_pct\":" << fixed4(gap_max) << '}';
  os << ",\"tenants\":[";
  bool first = true;
  for (const auto& [name, counters] : tenant_rows) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":" << io::json_quote(name)
       << ",\"received\":" << counters.received
       << ",\"admitted\":" << counters.admitted
       << ",\"rejected_rate\":" << counters.rejected_rate
       << ",\"rejected_backpressure\":" << counters.rejected_backpressure
       << ",\"rejected_draining\":" << counters.rejected_draining
       << ",\"completed\":" << counters.completed
       << ",\"failed\":" << counters.failed
       << ",\"appends\":" << counters.appends << '}';
  }
  os << "],\"fleet\":{\"streams\":" << fleet.streams
     << ",\"accepted\":" << fleet.accepted
     << ",\"applied\":" << fleet.applied
     << ",\"resolves\":" << fleet.resolves
     << ",\"failed_windows\":" << fleet.failed_windows
     << ",\"dropped\":" << fleet.dropped
     << ",\"publications\":" << fleet.publications
     << ",\"failures\":" << fleet.failures << "}}";
  return os.str();
}

}  // namespace hyperrec::service
