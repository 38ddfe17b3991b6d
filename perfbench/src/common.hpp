// Shared pieces of the hyperrec benchmark harness: arguments, seeded input
// generation, latency arithmetic, the in-memory span recorder and the
// report printer.  Everything here lives outside src/: the benchmark times
// calls INTO the library's public functions and never edits them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "model/machine.hpp"
#include "model/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string command;   ///< run | selftest
  std::string workload;  ///< serve_cold | serve_hot | stream_fleet | batch_long
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;    ///< shrunken shapes, for the smoke mode
  std::string serve;     ///< path of the hyperrec_serve binary
  std::string trace_out; ///< Chrome trace-event JSON path (traced runs)
};

// --- latency arithmetic ---------------------------------------------------

/// Failed or refused requests enter the latency samples as +inf, so they
/// count as missing every latency limit.
[[nodiscard]] double failed_latency();

/// Nearest-rank quantile: the ceil(q·n)-th smallest sample (q in (0, 1]).
/// Samples may hold +inf.  Empty input → +inf.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// The tail-percentile rule: the highest percentile of the ladder
/// 50/75/90/95/99/99.9/99.99 that leaves at least ten samples beyond it at
/// `count` samples (p50 when none does).
[[nodiscard]] double tail_percentile_for(std::size_t count);

/// How many samples lie beyond percentile `pct` at `count` samples.
[[nodiscard]] double samples_beyond(double pct, std::size_t count);

[[nodiscard]] double median(std::vector<double> values);

/// Open-loop latency: from when the request was DUE to its answer, so a
/// stall (of the daemon or of the generator itself) is charged to every
/// request it delayed.
[[nodiscard]] double due_latency_ms(Clock::time_point due,
                                    Clock::time_point answered);

// --- inputs ---------------------------------------------------------------

/// Deterministic synchronized trace: family `kind`, rng = Xoshiro256(seed)
/// split `stream` (the hyperrec_cli/daemon derivation for job `stream`).
[[nodiscard]] hyperrec::MultiTaskTrace make_trace(const std::string& kind,
                                                  std::size_t tasks,
                                                  std::size_t steps,
                                                  std::size_t universe,
                                                  std::uint64_t seed,
                                                  std::uint64_t stream);

/// The family of input i when cycling the five generator families.
[[nodiscard]] const std::string& family_for(std::size_t i);

class Tracer;

/// `count` inputs of one shape — input i is family_for(i) on rng stream i —
/// each generated under a workload.generate span of `tracer`.
[[nodiscard]] std::vector<hyperrec::MultiTaskTrace> make_traces(
    std::size_t count, std::size_t tasks, std::size_t steps,
    std::size_t universe, std::uint64_t seed, Tracer& tracer);

/// One inline-trace solve request line (no trailing newline).
[[nodiscard]] std::string solve_line(const hyperrec::MultiTaskTrace& trace,
                                     const std::string& id);

/// Local-only machine sized by the trace's task universes.
[[nodiscard]] hyperrec::MachineSpec machine_for(
    const hyperrec::MultiTaskTrace& trace);

// --- process facts ----------------------------------------------------------

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB; 0 when
/// /proc is unreadable.
[[nodiscard]] double peak_rss_mb(int pid = 0);

// --- spans ----------------------------------------------------------------

/// In-memory span recorder.  Spans carry name, start, end, parent span and
/// request id; they are written out once, as Chrome trace-event JSON.
class Tracer {
 public:
  struct Span {
    std::string name;  ///< "<layer>.<what>", e.g. "cache.lookup"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for roots
    std::uint64_t request = 0;
  };

  explicit Tracer(bool enabled = true);

  /// Opens a span as a child of the innermost open span; returns its
  /// index (or -1 when disabled).
  std::int64_t begin(std::string name, std::uint64_t request);
  void end(std::int64_t index);
  /// Renames a recorded span (for names only known after the call).
  void rename(std::int64_t index, std::string name);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Durations (µs) of every span with this exact name.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;

  /// Self time per layer (the name's prefix before the first '.'): each
  /// span's duration minus the part its child spans cover, summed, in µs.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_time_us()
      const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events).
  void write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& tracer, std::string name, std::uint64_t request)
      : tracer_(tracer), index_(tracer.begin(std::move(name), request)) {}
  ~Scoped() { tracer_.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

// --- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed before the result line

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string text) { notes.push_back(std::move(text)); }
  /// Records a failed correctness check (counted in `failed`).
  void fail(const std::string& what);
};

/// (errors + rejections + failed checks) / operations attempted.
[[nodiscard]] double failed_share(const Report& report);

/// Prints the notes, a human-readable metric table and, as the LAST line,
/// the one-line JSON result {"correct","attempted","failed","metrics"}.
void print_report(const Report& report);

/// Adds the standard latency pair for `samples` (ms, +inf = failed):
/// latency_p50_ms and latency_tail_ms at the workload's fixed percentile.
void add_latency(Report& report, const std::vector<double>& samples_ms,
                 double tail_pct);

}  // namespace perfbench
