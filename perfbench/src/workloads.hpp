// Workload entry points of the benchmark harness.  Each fills a Report with
// the end-to-end metrics of one untraced run, or (traced runs) with the
// per-layer metrics derived from spans recorded around public calls.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Fixed tail percentile per workload (the tail-percentile rule applied to
/// the workload's nominal request count; the same on every commit).
[[nodiscard]] double tail_pct_for_workload(const std::string& workload);

/// What a daemon run observed beyond its end-to-end metrics — the traced
/// run turns these into per-layer numbers.
struct ServeFacts {
  std::vector<double> client_ms;      ///< per request, +inf = failed
  std::vector<double> queue_wait_us;  ///< from each response's envelope
  double cache_hits = 0;
  double cache_lookups = 0;
  double cache_evictions = 0;
  std::vector<std::string> pool_lines;  ///< the request lines (no '\n')
};

/// serve_cold / serve_hot: spawn hyperrec_serve, load it over its socket,
/// audit /statz, stop it.  Run from the run directory (relative socket).
void run_serve(const Args& args, Report& report, ServeFacts* facts);

void run_stream_fleet(const Args& args, Report& report);
void run_batch_long(const Args& args, Report& report);

/// The traced run of any workload (per-layer metrics + Chrome trace).
void run_traced(const Args& args, Report& report);

/// Self-test of the metric arithmetic; returns the number of failures.
int run_selftest();

}  // namespace perfbench
