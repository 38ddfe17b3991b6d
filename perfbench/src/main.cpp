// hyperrec_perf: the benchmark harness behind perfbench/run.py.
//
//   hyperrec_perf run --workload=W --seed=N --seconds=S [--trace=0|1]
//                 [--serve=PATH] [--trace-out=FILE] [--smoke]
//   hyperrec_perf selftest
//
// `run` prints notes, a metric table and, as its last line, one JSON
// object {"correct","attempted","failed","metrics"}; it exits 1 when a
// correctness check failed.  Daemon workloads expect to run in a scratch
// directory: the daemon's socket is ./hr.sock.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "support/bitset_kernels.hpp"
#include "workloads.hpp"

namespace perfbench {

double tail_pct_for_workload(const std::string& workload) {
  // The tail-percentile rule at each workload's nominal sample count on
  // a 4-core x86-64 box (30 s runs): serve_cold ~90 requests (p75),
  // serve_hot ~12000 requests (p99.9), stream_fleet ~150 chunks (p90),
  // batch_long ~300 jobs (p95; a slow host still finishes 200).
  if (workload == "serve_cold") return tail_percentile_for(90);
  if (workload == "serve_hot") return tail_percentile_for(12000);
  if (workload == "stream_fleet") return tail_percentile_for(150);
  return tail_percentile_for(300);
}

}  // namespace perfbench

namespace {

struct CpuTimes {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

/// Aggregate jiffies from the first line of /proc/stat (zeros elsewhere).
CpuTimes cpu_times() {
  CpuTimes times;
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return times;
  unsigned long long field[8] = {};
  if (std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                  &field[0], &field[1], &field[2], &field[3], &field[4],
                  &field[5], &field[6], &field[7]) == 8) {
    for (const unsigned long long value : field) times.total += value;
    times.steal = field[7];
  }
  std::fclose(file);
  return times;
}

bool flag(const char* arg, const char* name, std::string& value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (argc >= 2) args.command = argv[1];
  std::string value;
  for (int i = 2; i < argc; ++i) {
    if (flag(argv[i], "--workload", value)) {
      args.workload = value;
    } else if (flag(argv[i], "--seed", value)) {
      args.seed = std::stoull(value);
    } else if (flag(argv[i], "--seconds", value)) {
      args.seconds = std::stod(value);
    } else if (flag(argv[i], "--trace", value)) {
      args.trace = value == "1";
    } else if (flag(argv[i], "--serve", value)) {
      args.serve = value;
    } else if (flag(argv[i], "--trace-out", value)) {
      args.trace_out = value;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (args.command == "selftest") {
    const int failures = run_selftest();
    std::printf("selftest: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }
  const bool serve =
      args.workload == "serve_cold" || args.workload == "serve_hot";
  if (args.command != "run" ||
      !(serve || args.workload == "stream_fleet" ||
        args.workload == "batch_long") ||
      (serve && args.serve.empty())) {
    std::fprintf(stderr,
                 "usage: %s run --workload=serve_cold|serve_hot|stream_fleet|"
                 "batch_long --seed=N --seconds=S [--trace=0|1] "
                 "[--serve=PATH] [--trace-out=FILE] [--smoke]\n"
                 "       %s selftest\n",
                 argv[0], argv[0]);
    return 2;
  }

  Report report;
  report.note(std::string("workload ") + args.workload + ", seed " +
              std::to_string(args.seed) + ", kernel ISA " +
              hyperrec::kernels::active_isa() + ", build " +
              PERFBENCH_BUILD_TYPE + (args.trace ? ", traced" : ""));
  const CpuTimes before = cpu_times();
  try {
    if (args.trace) {
      run_traced(args, report);
    } else if (serve) {
      run_serve(args, report, nullptr);
    } else if (args.workload == "stream_fleet") {
      run_stream_fleet(args, report);
    } else {
      run_batch_long(args, report);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hyperrec_perf: %s\n", error.what());
    return 1;
  }
  const CpuTimes after = cpu_times();
  if (after.total > before.total) {
    // Stolen time: the hypervisor ran someone else on our CPUs.  Runs with
    // a high share are the ones to distrust on a shared host.
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer), "host steal during the run: %.2f%%",
                  100.0 * static_cast<double>(after.steal - before.steal) /
                      static_cast<double>(after.total - before.total));
    report.note(buffer);
  }
  if (report.attempted == 0) report.fail("no operation was attempted");
  print_report(report);
  return report.correct ? 0 : 1;
}
