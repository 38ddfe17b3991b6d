#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace perfbench {

using namespace hyperrec;

double failed_latency() { return std::numeric_limits<double>::infinity(); }

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return failed_latency();
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double samples_beyond(double pct, std::size_t count) {
  return static_cast<double>(count) * (100.0 - pct) / 100.0;
}

double tail_percentile_for(std::size_t count) {
  static const double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0};
  for (const double pct : kLadder) {
    // A small epsilon keeps exact boundaries (1000 samples at p99 = 10
    // beyond) on the qualifying side despite binary rounding.
    if (samples_beyond(pct, count) >= 10.0 - 1e-9) return pct;
  }
  return 50.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double due_latency_ms(Clock::time_point due, Clock::time_point answered) {
  return std::chrono::duration<double, std::milli>(answered - due).count();
}

MultiTaskTrace make_trace(const std::string& kind, std::size_t tasks,
                          std::size_t steps, std::size_t universe,
                          std::uint64_t seed, std::uint64_t stream) {
  Xoshiro256 root(seed);
  Xoshiro256 rng = root.split(stream);
  return workload::make_multi_family(kind, tasks, steps, universe, rng);
}

const std::string& family_for(std::size_t i) {
  const std::vector<std::string>& kinds = workload::family_names();
  return kinds[i % kinds.size()];
}

std::vector<MultiTaskTrace> make_traces(std::size_t count, std::size_t tasks,
                                        std::size_t steps,
                                        std::size_t universe,
                                        std::uint64_t seed, Tracer& tracer) {
  std::vector<MultiTaskTrace> traces;
  traces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Scoped span(tracer, "workload.generate", i);
    traces.push_back(make_trace(family_for(i), tasks, steps, universe, seed, i));
  }
  return traces;
}

std::string solve_line(const MultiTaskTrace& trace, const std::string& id) {
  std::string out;
  out.reserve(64 + trace.steps() * trace.task_count() * 40);
  out += "{\"op\":\"solve\",\"id\":\"" + id + "\",\"job\":{\"name\":\"" + id +
         "\",\"trace\":{\"universes\":[";
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    if (j > 0) out += ',';
    out += std::to_string(trace.task(j).local_universe());
  }
  out += "],\"steps\":[";
  for (std::size_t s = 0; s < trace.steps(); ++s) {
    if (s > 0) out += ',';
    out += '[';
    for (std::size_t j = 0; j < trace.task_count(); ++j) {
      if (j > 0) out += ',';
      out += "{\"bits\":[";
      bool first = true;
      trace.task(j).at(s).local.for_each_set([&](std::size_t bit) {
        if (!first) out += ',';
        first = false;
        out += std::to_string(bit);
      });
      out += "]}";
    }
    out += ']';
  }
  out += "]}}}";
  return out;
}

MachineSpec machine_for(const MultiTaskTrace& trace) {
  std::vector<std::size_t> locals;
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    locals.push_back(trace.task(j).local_universe());
  }
  return MachineSpec::local_only(locals);
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream file(path);
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

// --- Tracer -------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::begin(std::string name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(std::move(span));
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::end(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::rename(std::int64_t index, std::string name) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].name = std::move(name);
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::self_time_us() const {
  // Children nest strictly inside their parent (spans are scoped), so the
  // covered part of a parent is the sum of its direct children.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    by_layer[layer] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e3;
  }
  return {by_layer.begin(), by_layer.end()};
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    out << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << span.name << "\","
        << "\"cat\":\"" << span.name.substr(0, span.name.find('.')) << "\","
        << buffer << ",\"args\":{\"span\":" << i << ",\"parent\":"
        << span.parent << ",\"request\":" << span.request << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

// --- report -------------------------------------------------------------------

double failed_share(const Report& report) {
  return report.attempted == 0 ? 0.0
                               : static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted);
}

void Report::fail(const std::string& what) {
  correct = false;
  ++failed;
  if (notes.size() < 40) notes.push_back("CHECK FAILED: " + what);
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    // JSON has no infinity; a failed-latency percentile is reported as a
    // huge finite number (the run is marked incorrect anyway).
    value = value > 0 ? 1e12 : -1e12;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.15g", value);
  return buffer;
}

}  // namespace

void print_report(const Report& report) {
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const Metric& metric : report.metrics) {
    std::printf("%-40s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string line = "{\"correct\":";
  line += report.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(report.attempted);
  line += ",\"failed\":" + std::to_string(report.failed);
  line += ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    if (i > 0) line += ',';
    line += "\"" + metric.name + "\":{\"value\":" + json_number(metric.value) +
            ",\"unit\":\"" + metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void add_latency(Report& report, const std::vector<double>& samples_ms,
                 double tail_pct) {
  report.add("latency_p50_ms", quantile(samples_ms, 0.50), "ms");
  report.add("latency_tail_ms", quantile(samples_ms, tail_pct / 100.0), "ms");
  const double beyond = samples_beyond(tail_pct, samples_ms.size());
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "latency: %zu samples, tail = p%g (%.1f samples beyond%s)",
                samples_ms.size(), tail_pct, beyond,
                beyond < 10.0 ? "; FEWER THAN 10" : "");
  report.note(buffer);
}

}  // namespace perfbench
