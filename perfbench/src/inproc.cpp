// In-process workloads: stream_fleet and batch_long.
//
//   stream_fleet  256 streams of 4 tasks x universe 32 x 512 steps through
//                 one StreamMultiplexer configured like the BatchEngine
//                 multiplex path behind `hyperrec_cli --streams=N` (window
//                 64, trigger steps:16, line-up aligned-dp,coord-descent,
//                 4 shard lanes on a hardware-sized pool, one shared cache
//                 smaller than the window count so it evicts).  Steps go in
//                 as 8 chunks of 64 round-robin ticks (4 re-solves per
//                 stream); each chunk ends with drain(), and its round trip
//                 is one latency sample.  An operation is one ingested
//                 stream step.
//   batch_long    hierarchical certified batch through BatchEngine, the
//                 path of `hyperrec_cli --hierarchical --certify
//                 --portfolio=aligned-dp,coord-descent`: 4 jobs of 4 tasks x
//                 16384 steps x universe 1024 (mixed families) per batch.
//                 An operation is one solved task-step; a latency sample is
//                 one job's wall time.
#include "inproc.hpp"

#include <algorithm>

#include "core/hierarchical.hpp"
#include "core/lower_bound.hpp"
#include "engine/batch_engine.hpp"
#include "streaming/trigger_spec.hpp"

namespace perfbench {

using namespace hyperrec;

namespace {

constexpr std::size_t kSampledStreams = 8;  ///< solo bit-identity checks

bool same_schedule(const MultiTaskSchedule& a, const MultiTaskSchedule& b) {
  if (a.tasks.size() != b.tasks.size()) return false;
  for (std::size_t j = 0; j < a.tasks.size(); ++j) {
    if (a.tasks[j].starts() != b.tasks[j].starts()) return false;
  }
  return a.global_boundaries == b.global_boundaries;
}

}  // namespace

FleetShape fleet_shape(bool smoke) {
  return smoke ? FleetShape{16, 2, 64, 12, 16, 8, 16, 32}
               : FleetShape{256, 4, 512, 32, 64, 16, 64, 1024};
}

BatchShape batch_shape(bool smoke) {
  return smoke ? BatchShape{2, 2, 1024, 128, 256}
               : BatchShape{4, 4, 4096, 1024, 512};
}

streaming::StreamingConfig fleet_stream_config(const FleetShape& shape) {
  streaming::StreamingConfig config;
  config.window = shape.window;
  config.trigger =
      streaming::parse_trigger_spec("steps:" + std::to_string(shape.trigger));
  config.portfolio.solvers = {"aligned-dp", "coord-descent"};
  return config;
}

FleetPass replay_fleet(const std::vector<MultiTaskTrace>& traces,
                       const FleetShape& shape, ThreadPool& pool,
                       Tracer& tracer) {
  FleetPass pass;
  streaming::MultiplexerConfig config;
  config.shards = 4;
  config.pool = &pool;
  cache::SolveCacheConfig cache_config;
  cache_config.capacity = shape.cache;
  config.cache = std::make_shared<cache::SolveCache>(cache_config);
  config.stream = fleet_stream_config(shape);
  pass.mux = std::make_unique<streaming::StreamMultiplexer>(config);
  streaming::StreamMultiplexer& mux = *pass.mux;
  for (const MultiTaskTrace& trace : traces) {
    (void)mux.open_stream(machine_for(trace));
  }

  // The periodic family rounds its length up to whole periods, so streams
  // may differ in length; like the CLI replay, a stream stops at its end.
  std::size_t max_steps = 0;
  for (const MultiTaskTrace& trace : traces) {
    max_steps = std::max(max_steps, trace.steps());
  }
  const Clock::time_point start = Clock::now();
  std::uint64_t appended = 0;
  for (std::size_t lo = 0; lo < max_steps; lo += shape.chunk) {
    const Clock::time_point chunk_start = Clock::now();
    const Scoped chunk(tracer, "streaming.chunk", lo);
    const std::size_t hi = std::min(max_steps, lo + shape.chunk);
    for (std::size_t s = lo; s < hi; ++s) {
      for (std::size_t i = 0; i < traces.size(); ++i) {
        if (s >= traces[i].steps()) continue;
        std::vector<ContextRequirement> step = traces[i].step(s);
        if (tracer.enabled()) {
          const Scoped span(tracer, "streaming.append", appended);
          mux.append_step(i, std::move(step));
        } else {
          mux.append_step(i, std::move(step));
        }
        ++appended;
      }
    }
    if (tracer.enabled()) {
      // Staleness: steps appended but not yet covered by a publication.
      for (std::size_t i = 0; i < std::min<std::size_t>(traces.size(), 8);
           ++i) {
        const auto snap = mux.snapshot(i);
        const std::size_t seen = std::min(hi, traces[i].steps());
        pass.stale_steps.push_back(
            static_cast<double>(seen - (snap ? snap->steps : 0)));
      }
    }
    {
      const Scoped wait(tracer, "streaming.chunk_drain", lo);
      mux.drain();
    }
    pass.chunk_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - chunk_start)
            .count());
  }
  const Clock::time_point drain_start = Clock::now();
  {
    const Scoped span(tracer, "streaming.drain", appended);
    mux.flush_all();
    mux.drain();
  }
  const Clock::time_point end = Clock::now();
  pass.drain_ms =
      std::chrono::duration<double, std::milli>(end - drain_start).count();
  pass.work_s = seconds_between(start, end);
  pass.appended = appended;
  pass.stats = mux.fleet_stats();
  return pass;
}

void check_fleet(const std::vector<MultiTaskTrace>& traces,
                 const FleetShape& shape, FleetPass& pass,
                 std::uint64_t seed, Report& report) {
  const streaming::FleetStats& stats = pass.stats;
  std::uint64_t expected = 0;
  for (const MultiTaskTrace& trace : traces) expected += trace.steps();
  if (stats.accepted != expected || stats.applied != expected) {
    report.fail("fleet: accepted " + std::to_string(stats.accepted) +
                ", applied " + std::to_string(stats.applied) + ", expected " +
                std::to_string(expected));
  }
  if (stats.dropped != 0 || stats.failures != 0 || stats.failed_windows != 0) {
    report.fail("fleet: drops/failures/failed windows are not all 0");
  }
  pass.cost_sum = 0.0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    pass.cost_sum +=
        static_cast<double>(pass.mux->engine(i).current_solution().total());
  }
  const streaming::StreamingConfig solo_config = fleet_stream_config(shape);

  const std::size_t samples = std::min(kSampledStreams, traces.size());
  for (std::size_t k = 0; k < samples; ++k) {
    const std::size_t i = (seed * 7 + k * 31) % traces.size();
    streaming::StreamingEngine solo(machine_for(traces[i]), EvalOptions{},
                                    solo_config);
    for (std::size_t s = 0; s < traces[i].steps(); ++s) {
      solo.append_step(traces[i].step(s));
    }
    solo.flush();
    const streaming::StreamingEngine& muxed = pass.mux->engine(i);
    const auto snap = pass.mux->snapshot(i);
    const MTSolution solution = muxed.current_solution();
    if (!same_schedule(muxed.schedule(), solo.schedule()) ||
        snap == nullptr || !same_schedule(snap->schedule, solo.schedule()) ||
        solution.total() != solo.current_solution().total()) {
      report.fail("fleet: stream " + std::to_string(i) +
                  " differs from its solo StreamingEngine run");
    }
  }
}

namespace {

/// Certificate ratio (published cost / lower bound) of every stream.
std::vector<double> fleet_bound_ratios(
    const std::vector<MultiTaskTrace>& traces, const FleetPass& pass,
    Report& report) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const SolveInstance instance(traces[i], machine_for(traces[i]));
    const Cost bound = compute_lower_bound(instance).bound;
    const Cost total = pass.mux->engine(i).current_solution().total();
    if (bound > total) report.fail("fleet: lower bound above the published cost");
    if (bound > 0) {
      ratios.push_back(static_cast<double>(total) / static_cast<double>(bound));
    }
  }
  return ratios;
}

}  // namespace

void run_stream_fleet(const Args& args, Report& report) {
  const FleetShape shape = fleet_shape(args.smoke);
  Tracer off(false);
  std::vector<double> generate_s;
  std::vector<MultiTaskTrace> traces;
  for (int round = 0; round < 3; ++round) {
    const Clock::time_point start = Clock::now();
    traces = make_traces(shape.streams, shape.tasks, shape.steps,
                         shape.universe, args.seed, off);
    generate_s.push_back(seconds_between(start, Clock::now()));
  }
  const Clock::time_point pool_start = Clock::now();
  ThreadPool pool(0);
  const double pool_s = seconds_between(pool_start, Clock::now());

  std::vector<double> chunk_ms;
  std::vector<double> pass_rates;  ///< steps/s of each pass
  double work_s = 0.0;
  std::uint64_t appended = 0;
  double cost_sum = 0.0;
  std::vector<double> ratios;
  std::size_t passes = 0;
  while (passes == 0 || (work_s < args.seconds && !args.smoke)) {
    FleetPass pass = replay_fleet(traces, shape, pool, off);
    work_s += pass.work_s;
    appended += pass.appended;
    pass_rates.push_back(static_cast<double>(pass.appended) / pass.work_s);
    chunk_ms.insert(chunk_ms.end(), pass.chunk_ms.begin(), pass.chunk_ms.end());
    check_fleet(traces, shape, pass, args.seed + passes, report);
    if (passes == 0) {
      cost_sum = pass.cost_sum;
      ratios = fleet_bound_ratios(traces, pass, report);
    } else if (pass.cost_sum != cost_sum) {
      report.fail("fleet: replay cost differs between passes");
    }
    ++passes;
  }

  report.attempted += appended;
  report.add("setup_s", median(generate_s) + pool_s, "s");
  add_latency(report, chunk_ms, tail_pct_for_workload(args.workload));
  // Median over passes: one pass slowed by a neighbour does not move it.
  report.add("throughput_per_s", median(pass_rates), "1/s");
  report.add("cost_sum", cost_sum, "cost");
  double ratio_sum = 0.0;
  for (const double r : ratios) ratio_sum += r;
  report.add("bound_ratio_mean",
             ratios.empty() ? 0.0 : ratio_sum / static_cast<double>(ratios.size()),
             "ratio");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.note(std::to_string(passes) + " fleet passes of " +
              std::to_string(shape.streams) + " streams x " +
              std::to_string(shape.steps) + " steps in " +
              std::to_string(work_s) + " s");
}

// --- batch_long ------------------------------------------------------------------

std::vector<engine::BatchJob> batch_jobs(const BatchShape& shape,
                                         std::uint64_t seed) {
  Tracer off(false);
  std::vector<MultiTaskTrace> traces = make_traces(
      shape.jobs, shape.tasks, shape.steps, shape.universe, seed, off);
  std::vector<engine::BatchJob> jobs;
  for (std::size_t i = 0; i < shape.jobs; ++i) {
    engine::BatchJob job;
    job.trace = std::move(traces[i]);
    job.machine = machine_for(job.trace);
    job.name = family_for(i) + "-" + std::to_string(i);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

HierarchicalConfig batch_hierarchical_config(const BatchShape& shape) {
  HierarchicalConfig config;
  config.segment = shape.segment;
  config.portfolio.solvers = {"aligned-dp", "coord-descent"};
  return config;
}

engine::BatchEngineConfig batch_engine_config(const BatchShape& shape) {
  engine::BatchEngineConfig config;
  config.parallelism = 0;
  config.portfolio.solvers = {"aligned-dp", "coord-descent"};
  config.certify = true;
  config.solver = [shape](const engine::BatchJob& job,
                          const CancelToken& token) {
    const SolveInstance instance(job.trace, job.machine, job.options);
    HierarchicalConfig hier = batch_hierarchical_config(shape);
    hier.cancel = token;
    return solve_hierarchical(instance, hier).solution;
  };
  return config;
}

void run_batch_long(const Args& args, Report& report) {
  const BatchShape shape = batch_shape(args.smoke);
  std::vector<double> generate_s;
  std::vector<engine::BatchJob> jobs;
  for (int round = 0; round < 3; ++round) {
    const Clock::time_point start = Clock::now();
    jobs = batch_jobs(shape, args.seed);
    generate_s.push_back(seconds_between(start, Clock::now()));
  }
  const Clock::time_point engine_start = Clock::now();
  const engine::BatchEngine batch_engine(batch_engine_config(shape));
  const double engine_s = seconds_between(engine_start, Clock::now());

  std::vector<double> job_ms;
  std::vector<double> batch_s;
  std::vector<Cost> first_totals;
  double work_s = 0.0;
  std::size_t batches = 0;
  double ratio_sum = 0.0;
  std::size_t ratio_count = 0;
  while (batches == 0 || (work_s < args.seconds && !args.smoke)) {
    const Clock::time_point start = Clock::now();
    const engine::BatchResult result = batch_engine.solve(jobs);
    batch_s.push_back(seconds_between(start, Clock::now()));
    work_s += batch_s.back();
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
      const engine::JobResult& job = result.jobs[i];
      report.attempted += 1;
      if (!job.ok) {
        report.fail("batch job " + job.name + " failed: " + job.error);
        job_ms.push_back(failed_latency());
        continue;
      }
      job_ms.push_back(static_cast<double>(job.elapsed.count()) / 1e3);
      const MTSolution& solution = job.solution;
      if (!solution.lower_bound.has_value() ||
          *solution.lower_bound > solution.total()) {
        report.fail("batch job " + job.name +
                    ": missing certificate or lower_bound > cost");
      }
      if (batches == 0) {
        // Re-evaluate the returned schedule with the public evaluator.
        const SolveInstance instance(jobs[i].trace, jobs[i].machine);
        const CostBreakdown again =
            evaluate_fully_sync_switch(instance, solution.schedule);
        if (again.total != solution.total()) {
          report.fail("batch job " + job.name +
                      ": re-evaluated cost differs from the reported cost");
        }
        first_totals.push_back(solution.total());
        if (solution.lower_bound.has_value() && *solution.lower_bound > 0) {
          ratio_sum += static_cast<double>(solution.total()) /
                       static_cast<double>(*solution.lower_bound);
          ++ratio_count;
        }
      } else if (i < first_totals.size() &&
                 solution.total() != first_totals[i]) {
        report.fail("batch job " + job.name + ": cost differs between batches");
      }
    }
    ++batches;
  }

  double cost_sum = 0.0;
  for (const Cost total : first_totals) cost_sum += static_cast<double>(total);
  double task_steps = 0.0;  // per batch
  for (const engine::BatchJob& job : jobs) {
    task_steps +=
        static_cast<double>(job.trace.task_count() * job.trace.steps());
  }
  report.add("setup_s", median(generate_s) + engine_s, "s");
  add_latency(report, job_ms, tail_pct_for_workload(args.workload));
  // Median over batches: one batch slowed by a neighbour does not move it.
  report.add("throughput_per_s", task_steps / median(batch_s), "1/s");
  report.add("cost_sum", cost_sum, "cost");
  report.add("bound_ratio_mean",
             ratio_count > 0 ? ratio_sum / static_cast<double>(ratio_count)
                             : 0.0,
             "ratio");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.note(std::to_string(batches) + " batches of " +
              std::to_string(shape.jobs) + " jobs (" +
              std::to_string(shape.tasks) + "x" + std::to_string(shape.steps) +
              "x" + std::to_string(shape.universe) + ") in " +
              std::to_string(work_s) + " s on " +
              std::to_string(batch_engine.parallelism()) + " workers");
}

}  // namespace perfbench
