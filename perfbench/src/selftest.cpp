// Self-test of the benchmark's metric arithmetic: the tail-percentile
// rule, nearest-rank quantiles, failed requests counted as infinitely
// slow, open-loop latency from the due time, and failed_share.
// Run it with `hyperrec_perf selftest` (perfbench/run.py --smoke does).
#include <cmath>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

int run_selftest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::printf("selftest FAILED: %s\n", what);
    }
  };
  const double inf = failed_latency();

  // Tail-percentile rule: the highest ladder percentile with >= 10 beyond.
  expect(tail_percentile_for(50) == 75.0, "50 samples -> p75");
  expect(tail_percentile_for(100) == 90.0, "100 samples -> p90");
  expect(tail_percentile_for(199) == 90.0, "199 samples -> p90");
  expect(tail_percentile_for(200) == 95.0, "200 samples -> p95");
  expect(tail_percentile_for(1000) == 99.0, "1000 samples -> p99");
  expect(tail_percentile_for(9999) == 99.0, "9999 samples -> p99");
  expect(tail_percentile_for(10000) == 99.9, "10000 samples -> p99.9");
  expect(tail_percentile_for(5) == 50.0, "5 samples -> p50 fallback");
  expect(tail_pct_for_workload("serve_cold") == 75.0, "serve_cold uses p75");
  expect(tail_pct_for_workload("serve_hot") == 99.9, "serve_hot uses p99.9");
  expect(tail_pct_for_workload("stream_fleet") == 90.0, "stream_fleet: p90");
  expect(tail_pct_for_workload("batch_long") == 95.0, "batch_long uses p95");
  for (const char* workload :
       {"serve_cold", "serve_hot", "stream_fleet", "batch_long"}) {
    expect(tail_pct_for_workload(workload) < 100.0, "tail below p100");
  }

  // Nearest-rank quantiles.
  expect(quantile({1, 2, 3, 4}, 0.5) == 2.0, "p50 of 1..4 is 2");
  expect(quantile({4, 3, 2, 1}, 0.75) == 3.0, "p75 of 1..4 is 3");
  expect(quantile({5}, 0.99) == 5.0, "single sample");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(quantile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(samples_beyond(99.0, 1000) == 10.0, "10 beyond p99 at 1000");

  // Failed requests count as infinitely slow.
  expect(quantile({1, 2, inf, inf}, 0.5) == 2.0, "2 of 4 failed: p50 finite");
  expect(quantile({1, inf, inf}, 0.5) == inf, "2 of 3 failed: p50 infinite");
  expect(quantile({1, 2, 3, inf}, 0.75) == 3.0, "p75 below the failure");
  expect(quantile({1, 2, 3, inf}, 1.0) == inf, "max is the failure");
  expect(quantile({}, 0.5) == inf, "no samples reads as failed");

  // Open loop: latency counts from the due time, so a stalled generator's
  // lateness lands in the latency of every request it delayed.
  {
    const Clock::time_point t0 = Clock::now();
    auto at = [t0](double ms) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(ms));
    };
    // Due every 10 ms; the generator stalls 25 ms and sends #1 and #2
    // late; the server answers each 1 ms after it was sent.
    const double due[] = {0, 10, 20, 30};
    const double sent[] = {0, 25, 25, 30};
    std::vector<double> latency;
    for (int k = 0; k < 4; ++k) {
      latency.push_back(due_latency_ms(at(due[k]), at(sent[k] + 1.0)));
    }
    expect(std::abs(latency[1] - 16.0) < 1e-6, "late send counts from due");
    expect(std::abs(latency[2] - 6.0) < 1e-6, "queued send counts from due");
    expect(std::abs(latency[3] - 1.0) < 1e-6, "on-time send");
  }

  // failed_share = (errors + rejections + failed checks) / attempted.
  {
    Report report;
    report.attempted = 8;
    report.fail("error line");
    report.fail("reject line");
    expect(!report.correct, "a failed check marks the run incorrect");
    expect(failed_share(report) == 0.25, "failed_share = 2/8");
    Report clean;
    clean.attempted = 3;
    expect(clean.correct && failed_share(clean) == 0.0, "clean run");
  }
  return failures;
}

}  // namespace perfbench
