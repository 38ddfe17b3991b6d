// The traced run: per-layer metrics from spans recorded around calls into
// each layer's public functions (no span sits inside src/).
//
// Every traced run prints the same per-layer metric set.  Each workload
// measures the layers on its own path with its own inputs (the "path"
// tracer); the layers off its path are measured by probes fed with inputs
// of the workload's shape (the "probe" tracer), so one table always covers
// every layer.  Spans stay in memory and are written once, as Chrome
// trace-event JSON, at the end.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>

#include "cache/fingerprint.hpp"
#include "cache/solve_cache.hpp"
#include "core/hierarchical.hpp"
#include "core/lower_bound.hpp"
#include "engine/portfolio.hpp"
#include "inproc.hpp"
#include "io/result_json.hpp"
#include "service/protocol.hpp"
#include "service/solve_service.hpp"
#include "streaming/streaming_engine.hpp"
#include "support/bitset_kernels.hpp"

namespace perfbench {

using namespace hyperrec;

namespace {

const char* const kLayers[] = {"workload", "support", "model", "core", "engine",
                               "cache", "io", "streaming", "service"};
const char* const kMembers[] = {"aligned-dp", "greedy-w8", "coord-descent",
                                "genetic", "annealing"};

double p50(const std::vector<double>& values) {
  return values.empty() ? 0.0 : quantile(values, 0.5);
}

/// Adds a metric unless one of that name is already in the report: the
/// workload's own path reports first, probes fill the gaps.
void add_once(Report& report, const std::string& name, double value,
              const std::string& unit) {
  for (const Metric& metric : report.metrics) {
    if (metric.name == name) return;
  }
  report.add(name, value, unit);
}

std::vector<std::string> lines_for(const std::vector<MultiTaskTrace>& traces) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    lines.push_back(solve_line(traces[i], "p" + std::to_string(i)));
  }
  return lines;
}

// --- the request chain ------------------------------------------------------------

struct ChainStats {
  std::vector<double> response_bytes;
  std::vector<double> useful;  ///< winning member's time / race time
};

/// The request chain, in-process, through public calls: parse → job →
/// instance build → key → lookup → (portfolio → bound → insert) → evaluate
/// → serialize; the first `members` requests also run each standard
/// member alone.  Returns the replay's wall seconds.
double replay_chain(const std::vector<std::string>& lines,
                    std::size_t requests, std::size_t members,
                    cache::SolveCache& cache, Tracer& tracer,
                    ChainStats* stats) {
  const Clock::time_point start = Clock::now();
  for (std::size_t r = 0; r < requests; ++r) {
    const Scoped root(tracer, "service.request", r);
    service::Request request;
    {
      const Scoped span(tracer, "service.parse", r);
      request = service::parse_request(lines[r % lines.size()]);
    }
    engine::BatchJob job;
    {
      const Scoped span(tracer, "service.make_job", r);
      job = service::make_job(request.job);
    }
    std::unique_ptr<SolveInstance> instance;
    {
      const Scoped span(tracer, "model.instance_build", r);
      instance = std::make_unique<SolveInstance>(job.trace, job.machine,
                                                 job.options);
    }
    cache::InstanceKey key;
    {
      const Scoped span(tracer, "cache.key", r);
      key = cache::make_instance_key(*instance);
    }
    std::optional<MTSolution> hit;
    {
      const Scoped span(tracer, "cache.lookup", r);
      hit = cache.lookup(key);
    }
    engine::BatchResult result;
    result.jobs.resize(1);
    engine::JobResult& out = result.jobs.front();
    out.name = job.name;
    out.ok = true;
    if (hit.has_value()) {
      out.solution = std::move(*hit);
      out.winner = "cache";
      out.cache = engine::JobCacheOutcome::kHit;
    } else {
      engine::PortfolioConfig config;
      config.parallel = false;  // the daemon races members serially
      engine::PortfolioResult race;
      {
        const Scoped span(tracer, "engine.portfolio", r);
        race = engine::solve_portfolio(*instance, config);
      }
      {
        const Scoped span(tracer, "core.lower_bound", r);
        const LowerBoundCertificate cert = compute_lower_bound(*instance);
        race.best.lower_bound = cert.bound;
        race.best.gap_pct = certified_gap_pct(race.best.total(), cert.bound);
      }
      for (const engine::PortfolioEntry& entry : race.entries) {
        if (stats != nullptr && entry.solver == race.winner &&
            race.elapsed.count() > 0) {
          stats->useful.push_back(static_cast<double>(entry.elapsed.count()) /
                                  static_cast<double>(race.elapsed.count()));
        }
      }
      out.entries = race.entries;
      out.winner = race.winner;
      out.solution = race.best;
      out.cache = engine::JobCacheOutcome::kMiss;
      result.elapsed = race.elapsed;
      {
        const Scoped span(tracer, "cache.insert", r);
        cache.insert(key, out.solution);
      }
    }
    {
      const Scoped span(tracer, "model.evaluate", r);
      (void)evaluate_fully_sync_switch(*instance, out.solution.schedule);
    }
    {
      const Scoped span(tracer, "io.serialize", r);
      const std::string document = io::batch_result_to_json(result);
      if (stats != nullptr) {
        stats->response_bytes.push_back(static_cast<double>(document.size()));
      }
    }
    if (r < members) {
      for (const NamedSolver& solver : standard_solvers()) {
        const Scoped span(tracer, "core.solver." + solver.name, r);
        (void)solver.solve(*instance);
      }
    }
  }
  return seconds_between(start, Clock::now());
}

/// The daemon's default configuration (hyperrec_serve without flags).
service::ServiceConfig daemon_config() {
  service::ServiceConfig config;
  config.cache.capacity = 512;
  config.default_quota.burst = 8.0;
  return config;
}

struct RequestPlan {
  std::size_t requests = 0;  ///< chain replays (after the fill, if any)
  std::size_t members = 0;   ///< of those, how many time each member alone
  std::size_t handled = 0;   ///< in-process handle_line calls
  bool hot = false;          ///< fill the caches first: the hit path
};

/// Service, cache, model, core-member, engine and io layers over `lines`:
/// the chain replay (through `cache`, which afterwards holds every line)
/// plus SolveService::handle_line as a whole.  Returns the queue waits of
/// the handle_line responses.
std::vector<double> request_layers(const std::vector<std::string>& lines,
                                   const RequestPlan& plan,
                                   cache::SolveCache& cache, Tracer& tracer,
                                   Report& report) {
  ChainStats stats;
  if (plan.hot) {
    // Traced too: the fill's misses are where the portfolio and the bound
    // run on the hot path's inputs.
    (void)replay_chain(lines, lines.size(), 0, cache, tracer, &stats);
  }
  (void)replay_chain(lines, plan.requests, plan.members, cache, tracer,
                     &stats);
  const auto add = [&](const std::string& name, const std::string& span) {
    add_once(report, name, p50(tracer.durations_us(span)), "us");
  };
  add("service.parse_us", "service.parse");
  add("cache.key_us", "cache.key");
  add("cache.lookup_us", "cache.lookup");
  add("model.instance_build_us", "model.instance_build");
  add("model.evaluate_us", "model.evaluate");
  for (const char* member : kMembers) {
    add(std::string("core.solver_us.") + member,
        std::string("core.solver.") + member);
  }
  add("core.lower_bound_us", "core.lower_bound");
  add("engine.portfolio_us", "engine.portfolio");
  add("io.serialize_us", "io.serialize");
  add_once(report, "io.response_bytes", p50(stats.response_bytes), "bytes");
  add_once(report, "engine.useful_ratio", p50(stats.useful), "ratio");

  service::SolveService service(daemon_config());
  if (plan.hot) {
    for (const std::string& line : lines) (void)service.handle_line(line);
  }
  std::vector<double> waits;
  for (std::size_t r = 0; r < plan.handled; ++r) {
    std::string response;
    {
      const Scoped span(tracer, "service.handle_line", r);
      response = service.handle_line(lines[r % lines.size()]);
    }
    const std::size_t at = response.find("\"wait_us\":");
    if (at != std::string::npos) {
      waits.push_back(std::atof(response.c_str() + at + 10));
    }
    if (response.find("\"ok\":true") == std::string::npos) {
      report.fail("in-process handle_line failed: " + response.substr(0, 120));
    }
  }
  service.shutdown();
  add("service.handle_line_us", "service.handle_line");
  return waits;
}

// --- streaming, hierarchical and kernel layers -----------------------------------

/// Streaming layers over `traces`: one traced multiplexed pass, plus solo
/// StreamingEngine appends on a few streams, split by whether the append
/// fired a window re-solve.
void streaming_layers(const std::vector<MultiTaskTrace>& traces,
                      const FleetShape& shape, ThreadPool& pool,
                      Tracer& tracer, Report& report) {
  FleetPass pass = replay_fleet(traces, shape, pool, tracer);
  check_fleet(traces, shape, pass, 1, report);
  add_once(report, "streaming.append_us",
           p50(tracer.durations_us("streaming.append")), "us");
  add_once(report, "streaming.drain_ms", pass.drain_ms, "ms");
  double stale = 0.0;
  for (const double s : pass.stale_steps) stale += s;
  add_once(report, "streaming.stale_steps",
           pass.stale_steps.empty()
               ? 0.0
               : stale / static_cast<double>(pass.stale_steps.size()),
           "steps");
  add_once(report, "streaming.resolves",
           static_cast<double>(pass.stats.resolves), "count");
  const double lookups = static_cast<double>(pass.stats.cache.hits +
                                             pass.stats.cache.misses);
  add_once(report, "cache.hit_ratio",
           lookups > 0 ? static_cast<double>(pass.stats.cache.hits) / lookups
                       : 0.0,
           "ratio");
  add_once(report, "cache.evictions",
           static_cast<double>(pass.stats.cache.evictions), "count");

  const streaming::StreamingConfig config = fleet_stream_config(shape);
  for (std::size_t k = 0; k < std::min<std::size_t>(traces.size(), 4); ++k) {
    streaming::StreamingEngine solo(machine_for(traces[k]), EvalOptions{},
                                    config);
    for (std::size_t s = 0; s < traces[k].steps(); ++s) {
      std::vector<ContextRequirement> step = traces[k].step(s);
      const std::int64_t span = tracer.begin("streaming.step", k);
      const bool resolved = solo.append_step(std::move(step));
      tracer.end(span);
      // Whether a re-solve ran is only known once append_step returned.
      if (resolved) tracer.rename(span, "streaming.resolve_step");
    }
  }
  add_once(report, "streaming.step_us",
           p50(tracer.durations_us("streaming.step")), "us");
  add_once(report, "streaming.resolve_step_us",
           p50(tracer.durations_us("streaming.resolve_step")), "us");
}

/// solve_hierarchical with the batch_long configuration at `segment`.
void hierarchical_layers(const std::vector<MultiTaskTrace>& traces,
                         std::size_t segment, Tracer& tracer, Report& report) {
  std::vector<double> segments;
  std::vector<double> merges;
  BatchShape shape = batch_shape(false);
  shape.segment = segment;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const SolveInstance instance(traces[i], machine_for(traces[i]));
    const Scoped span(tracer, "core.hierarchical", i);
    const HierarchicalResult result =
        solve_hierarchical(instance, batch_hierarchical_config(shape));
    segments.push_back(static_cast<double>(result.segments));
    merges.push_back(static_cast<double>(result.seam_merges));
  }
  add_once(report, "core.hierarchical_us",
           p50(tracer.durations_us("core.hierarchical")), "us");
  add_once(report, "core.hierarchical.segments", p50(segments), "count");
  add_once(report, "core.hierarchical.seam_merges", p50(merges), "count");
}

/// The dispatched or_popcount kernel on the workload's own step rows
/// (|row_s ∪ row_s+1| per task), ns per call.
double or_popcount_ns(const std::vector<MultiTaskTrace>& traces,
                      Tracer& tracer) {
  const kernels::KernelTable& table = kernels::active_table();
  std::size_t calls = 0;
  std::size_t bits = 0;
  const Clock::time_point start = Clock::now();
  {
    const Scoped span(tracer, "support.or_popcount", 0);
    for (int round = 0; round < 4; ++round) {
      for (const MultiTaskTrace& trace : traces) {
        for (std::size_t j = 0; j < trace.task_count(); ++j) {
          const TaskTrace& task = trace.task(j);
          for (std::size_t s = 1; s < task.size(); ++s) {
            const auto a = task.at(s - 1).local.words();
            const auto b = task.at(s).local.words();
            bits += table.or_popcount(a.data(), b.data(), a.size());
            ++calls;
          }
        }
      }
    }
  }
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  volatile std::size_t keep = bits;  // the calls must not be optimized away
  (void)keep;
  return calls > 0 ? ns / static_cast<double>(calls) : 0.0;
}

/// Tracing overhead: the same replay with the recorder off and on, after a
/// warm-up, alternating twice; the fastest of each side counts.
double overhead_pct(const std::function<double(Tracer&)>& replay) {
  Tracer warm(false);
  (void)replay(warm);
  double off_s = 0.0;
  double on_s = 0.0;
  for (int round = 0; round < 2; ++round) {
    Tracer off(false);
    Tracer on(true);
    const double a = replay(off);
    const double b = replay(on);
    off_s = round == 0 ? a : std::min(off_s, a);
    on_s = round == 0 ? b : std::min(on_s, b);
  }
  return off_s > 0 ? (on_s - off_s) * 100.0 / off_s : 0.0;
}

/// A small fleet over probe traces of `steps` steps.
FleetShape probe_fleet_shape(std::size_t streams, std::size_t steps) {
  FleetShape shape = fleet_shape(false);
  shape.streams = streams;
  shape.steps = steps;
  shape.window = steps / 2;
  shape.trigger = steps / 8;
  shape.chunk = steps / 4;
  return shape;
}

// --- the three path kinds -------------------------------------------------------------

/// serve_*: a short daemon run (client latency, queue envelopes, cache
/// counters), then the same request lines replayed in-process.
std::vector<double> trace_serve(const Args& args, Tracer& tracer,
                                Tracer& probe, ThreadPool& pool,
                                double& overhead, Report& report) {
  const bool hot = args.workload == "serve_hot";
  Args short_args = args;
  short_args.seconds = std::max(1.0, std::min(5.0, args.seconds / 3.0));
  Report daemon_report;
  ServeFacts facts;
  run_serve(short_args, daemon_report, &facts);
  report.attempted += daemon_report.attempted;
  for (const std::string& note : daemon_report.notes) report.note(note);
  if (!daemon_report.correct) report.fail("daemon phase failed its checks");

  // The pool's first traces, regenerated (identical inputs) under spans.
  const std::size_t steps = args.smoke ? 24 : 96;
  const std::size_t universe = args.smoke ? 12 : 32;
  const std::size_t count =
      hot ? facts.pool_lines.size()
          : std::min<std::size_t>(facts.pool_lines.size(), args.smoke ? 4 : 6);
  const std::vector<MultiTaskTrace> traces = make_traces(
      count, args.smoke ? 2 : 4, steps, universe, args.seed, tracer);
  const std::vector<std::string> lines(
      facts.pool_lines.begin(),
      facts.pool_lines.begin() + static_cast<std::ptrdiff_t>(count));
  RequestPlan plan;
  plan.hot = hot;
  plan.requests = hot ? 400 : lines.size();
  plan.members = hot ? 1 : std::min<std::size_t>(lines.size(), 3);
  plan.handled = hot ? 400 : std::min<std::size_t>(lines.size(), 3);
  cache::SolveCache cache(cache::SolveCacheConfig{});
  (void)request_layers(lines, plan, cache, tracer, report);
  // What the client waited for beyond the daemon's queue and its in-process
  // handling: socket transport and the connection thread's turnaround.
  report.add("service.transport_us",
             quantile(facts.client_ms, 0.5) * 1e3 -
                 p50(facts.queue_wait_us) -
                 p50(tracer.durations_us("service.handle_line")),
             "us");
  report.add("cache.hit_ratio",
             facts.cache_lookups > 0 ? facts.cache_hits / facts.cache_lookups
                                     : 0.0,
             "ratio");
  report.add("cache.evictions", facts.cache_evictions, "count");
  // Overhead: the chain over the now-filled cache (no solving), off vs on.
  overhead = overhead_pct([&](Tracer& t) {
    return replay_chain(lines, 400, 0, cache, t, nullptr);
  });
  report.add("support.or_popcount_ns", or_popcount_ns(traces, tracer), "ns");
  streaming_layers(traces, probe_fleet_shape(traces.size(), steps), pool, probe,
                   report);
  hierarchical_layers({traces.begin(), traces.begin() + 2}, steps / 4, probe,
                      report);
  return facts.queue_wait_us;
}

/// stream_fleet: a traced fleet pass and solo engines; probes for the rest.
std::vector<double> trace_fleet(const Args& args, Tracer& tracer,
                                Tracer& probe, ThreadPool& pool,
                                double& overhead, Report& report) {
  const FleetShape fleet = fleet_shape(args.smoke);
  const std::vector<MultiTaskTrace> traces =
      make_traces(fleet.streams, fleet.tasks, fleet.steps, fleet.universe,
                  args.seed, tracer);
  for (const MultiTaskTrace& trace : traces) report.attempted += trace.steps();
  overhead = overhead_pct([&](Tracer& t) {
    return replay_fleet(traces, fleet, pool, t).work_s;
  });
  streaming_layers(traces, fleet, pool, tracer, report);
  report.add("support.or_popcount_ns", or_popcount_ns(traces, tracer), "ns");

  const std::size_t steps = args.smoke ? 24 : 96;
  const std::vector<std::string> lines = lines_for(make_traces(
      5, fleet.tasks, steps, fleet.universe, args.seed, probe));
  RequestPlan plan;
  plan.requests = lines.size();
  plan.members = 2;
  plan.handled = 2;
  cache::SolveCache cache(cache::SolveCacheConfig{});
  std::vector<double> waits = request_layers(lines, plan, cache, probe, report);
  report.add("service.transport_us", 0.0, "us");  // no socket in-process
  hierarchical_layers({traces.begin(), traces.begin() + 2}, fleet.window,
                      probe, report);
  return waits;
}

/// batch_long: per job, instance build → hierarchical → bound → evaluate.
std::vector<double> trace_batch(const Args& args, Tracer& tracer,
                                Tracer& probe, ThreadPool& pool,
                                double& overhead, Report& report) {
  const BatchShape batch = batch_shape(args.smoke);
  const std::vector<MultiTaskTrace> traces = make_traces(
      batch.jobs, batch.tasks, batch.steps, batch.universe, args.seed, tracer);
  std::vector<double> segments;
  std::vector<double> merges;
  const auto job_chain = [&](Tracer& t) {
    const Clock::time_point start = Clock::now();
    segments.clear();
    merges.clear();
    for (std::size_t i = 0; i < traces.size(); ++i) {
      const Scoped root(t, "engine.job", i);
      std::unique_ptr<SolveInstance> instance;
      {
        const Scoped span(t, "model.instance_build", i);
        instance = std::make_unique<SolveInstance>(traces[i],
                                                   machine_for(traces[i]));
      }
      HierarchicalResult result;
      {
        const Scoped span(t, "core.hierarchical", i);
        HierarchicalConfig config = batch_hierarchical_config(batch);
        config.certify = false;  // the bound is timed on its own below
        result = solve_hierarchical(*instance, config);
      }
      LowerBoundCertificate cert;
      {
        const Scoped span(t, "core.lower_bound", i);
        cert = compute_lower_bound(*instance);
      }
      CostBreakdown again;
      {
        const Scoped span(t, "model.evaluate", i);
        again = evaluate_fully_sync_switch(*instance, result.solution.schedule);
      }
      if (again.total != result.solution.total() ||
          cert.bound > result.solution.total()) {
        report.fail("batch job " + std::to_string(i) +
                    ": re-evaluation or bound check failed");
      }
      segments.push_back(static_cast<double>(result.segments));
      merges.push_back(static_cast<double>(result.seam_merges));
    }
    return seconds_between(start, Clock::now());
  };
  overhead = overhead_pct(job_chain);
  (void)job_chain(tracer);
  report.attempted += traces.size();
  const auto add = [&](const std::string& name, const std::string& span) {
    report.add(name, p50(tracer.durations_us(span)), "us");
  };
  add("model.instance_build_us", "model.instance_build");
  add("model.evaluate_us", "model.evaluate");
  add("core.lower_bound_us", "core.lower_bound");
  add("core.hierarchical_us", "core.hierarchical");
  report.add("core.hierarchical.segments", p50(segments), "count");
  report.add("core.hierarchical.seam_merges", p50(merges), "count");
  report.add("support.or_popcount_ns", or_popcount_ns(traces, tracer), "ns");

  // Probes at the workload's universe on 4x96 traces.
  const std::size_t steps = args.smoke ? 24 : 96;
  const std::vector<MultiTaskTrace> probes = make_traces(
      args.smoke ? 2 : 3, batch.tasks, steps, batch.universe, args.seed, probe);
  RequestPlan plan;
  plan.requests = probes.size();
  plan.members = 1;
  plan.handled = 1;
  cache::SolveCache cache(cache::SolveCacheConfig{});
  std::vector<double> waits =
      request_layers(lines_for(probes), plan, cache, probe, report);
  report.add("service.transport_us", 0.0, "us");  // no socket in-process
  streaming_layers(probes, probe_fleet_shape(probes.size(), steps), pool,
                   probe, report);
  return waits;
}

}  // namespace

void run_traced(const Args& args, Report& report) {
  Tracer tracer(true);  // the workload's own path
  Tracer probe(true);   // layers off the workload's path
  ThreadPool pool(0);
  double overhead = 0.0;
  std::vector<double> queue_wait_us;
  if (args.workload == "serve_cold" || args.workload == "serve_hot") {
    queue_wait_us = trace_serve(args, tracer, probe, pool, overhead, report);
  } else if (args.workload == "stream_fleet") {
    queue_wait_us = trace_fleet(args, tracer, probe, pool, overhead, report);
  } else {
    queue_wait_us = trace_batch(args, tracer, probe, pool, overhead, report);
  }

  report.add("service.queue_wait_us", p50(queue_wait_us), "us");
  report.add("service.queue_wait_tail_us",
             queue_wait_us.empty()
                 ? 0.0
                 : quantile(queue_wait_us,
                            tail_pct_for_workload(args.workload) / 100.0),
             "us");
  report.add("workload.generate_us",
             p50(tracer.durations_us("workload.generate")), "us");

  // Self time per layer on the workload's own path, as a share of it.
  std::map<std::string, double> self;
  double total = 0.0;
  for (const auto& [layer, us] : tracer.self_time_us()) {
    self[layer] = us;
    total += us;
  }
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    report.add(std::string("self.") + layer + "_pct",
               total > 0 && it != self.end() ? it->second * 100.0 / total : 0.0,
               "%");
  }
  report.add("trace.overhead_pct", overhead, "%");
  report.add("trace.spans",
             static_cast<double>(tracer.spans().size() + probe.spans().size()),
             "count");

  if (!args.trace_out.empty()) {
    tracer.write_chrome(args.trace_out);
    probe.write_chrome(args.trace_out + ".probe.json");
  }
}

}  // namespace perfbench
