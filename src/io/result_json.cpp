#include "io/result_json.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

namespace hyperrec::io {

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void write_entry(std::ostream& os, const engine::PortfolioEntry& entry) {
  os << "{\"name\":" << json_quote(entry.solver)
     << ",\"ok\":" << (entry.ok ? "true" : "false")
     << ",\"total\":" << entry.total
     << ",\"elapsed_us\":" << entry.elapsed.count() << '}';
}

const char* window_cache_outcome(const streaming::WindowReport& window) {
  if (!window.cache.has_value()) return "bypass";
  switch (*window.cache) {
    case cache::CacheOutcome::kMiss: return "miss";
    case cache::CacheOutcome::kHit: return "hit";
    case cache::CacheOutcome::kCoalesced: return "coalesced";
  }
  return "bypass";
}

void write_window(std::ostream& os, const streaming::WindowReport& window) {
  os << "{\"index\":" << window.index << ",\"trigger\":\""
     << streaming::to_string(window.trigger) << '"'
     << ",\"lo\":" << window.window_lo << ",\"hi\":" << window.window_hi
     << ",\"ok\":" << (window.ok ? "true" : "false") << ",\"error\":"
     << json_quote(window.error) << ",\"winner\":" << json_quote(window.winner)
     << ",\"cache\":\"" << window_cache_outcome(window) << '"'
     << ",\"warm_started\":" << (window.warm_started ? "true" : "false")
     << ",\"elapsed_us\":" << window.elapsed.count()
     << ",\"window_cost\":" << window.window_cost
     << ",\"published_cost\":" << window.published_cost
     << ",\"prefix_boundaries\":" << window.splice_prefix_boundaries << '}';
}

void write_job(std::ostream& os, const engine::JobResult& job) {
  os << "{\"index\":" << job.index << ",\"name\":" << json_quote(job.name)
     << ",\"ok\":" << (job.ok ? "true" : "false")
     << ",\"error\":" << json_quote(job.error)
     << ",\"winner\":" << json_quote(job.winner)
     << ",\"cache\":\"" << engine::to_string(job.cache) << '"'
     << ",\"warm_started\":" << (job.warm_started ? "true" : "false")
     << ",\"streamed\":" << (job.streamed ? "true" : "false");
  const CostBreakdown& cost = job.solution.breakdown;
  os << ",\"elapsed_us\":" << job.elapsed.count() << ",\"cost\":{\"total\":"
     << cost.total << ",\"hyper\":" << cost.hyper << ",\"reconfig\":"
     << cost.reconfig << ",\"global_hyper\":" << cost.global_hyper
     << ",\"partial_hyper_steps\":" << cost.partial_hyper_steps
     << "},\"lower_bound\":";
  if (job.solution.lower_bound.has_value()) {
    os << *job.solution.lower_bound;
  } else {
    os << "null";
  }
  os << ",\"gap_pct\":";
  if (job.solution.gap_pct.has_value()) {
    // Fixed four-decimal rendering: gap_pct is a finite non-negative ratio
    // of integral costs, so NaN/Inf cannot occur and the output stays a
    // plain JSON number.
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.4f", *job.solution.gap_pct);
    os << buffer;
  } else {
    os << "null";
  }
  os << ",\"solvers\":[";
  for (std::size_t i = 0; i < job.entries.size(); ++i) {
    if (i > 0) os << ',';
    write_entry(os, job.entries[i]);
  }
  os << "],\"windows\":[";
  for (std::size_t i = 0; i < job.windows.size(); ++i) {
    if (i > 0) os << ',';
    write_window(os, job.windows[i]);
  }
  os << "]}";
}

void write_fleet(std::ostream& os, const engine::BatchResult& result) {
  if (!result.fleet.has_value()) {
    os << "null";
    return;
  }
  const streaming::FleetStats& fleet = *result.fleet;
  os << "{\"streams\":" << fleet.streams << ",\"accepted\":" << fleet.accepted
     << ",\"applied\":" << fleet.applied << ",\"resolves\":" << fleet.resolves
     << ",\"failed_windows\":" << fleet.failed_windows
     << ",\"dropped\":" << fleet.dropped
     << ",\"publications\":" << fleet.publications
     << ",\"failures\":" << fleet.failures << ",\"per_stream\":[";
  for (std::size_t i = 0; i < result.fleet_streams.size(); ++i) {
    const streaming::StreamSummary& row = result.fleet_streams[i];
    if (i > 0) os << ',';
    os << "{\"id\":" << row.id << ",\"steps\":" << row.steps
       << ",\"resolves\":" << row.resolves
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
  }
  os << "]}";
}

}  // namespace

void save_batch_result_json(std::ostream& os,
                            const engine::BatchResult& result,
                            const ServiceFields* service) {
  const cache::SolveCacheStats& stats = result.cache_stats;
  os << "{\"schema\":\"hyperrec-batch-result\",\"version\":6"
     << ",\"parallelism\":" << result.parallelism
     << ",\"elapsed_us\":" << result.elapsed.count()
     << ",\"job_count\":" << result.jobs.size() << ",\"tenant\":";
  if (service != nullptr) {
    os << json_quote(service->tenant);
  } else {
    os << "null";
  }
  os << ",\"queue\":";
  if (service != nullptr) {
    os << "{\"priority\":" << service->priority
       << ",\"depth\":" << service->queue_depth
       << ",\"wait_us\":" << service->wait.count() << '}';
  } else {
    os << "null";
  }
  os << ",\"cache\":{\"enabled\":" << (result.cache_enabled ? "true" : "false")
     << ",\"capacity\":" << result.cache_capacity
     << ",\"size\":" << result.cache_size << ",\"hits\":" << stats.hits
     << ",\"misses\":" << stats.misses << ",\"coalesced\":" << stats.coalesced
     << ",\"coalesced_failures\":" << stats.coalesced_failures
     << ",\"insertions\":" << stats.insertions
     << ",\"refreshes\":" << stats.refreshes
     << ",\"evictions\":" << stats.evictions
     << ",\"expirations\":" << stats.expirations
     << ",\"collisions\":" << stats.collisions
     << ",\"warm_hits\":" << stats.warm_hits << "},\"fleet\":";
  write_fleet(os, result);
  os << ",\"jobs\":[";
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    if (i > 0) os << ',';
    write_job(os, result.jobs[i]);
  }
  os << "]}\n";
}

std::string batch_result_to_json(const engine::BatchResult& result,
                                 const ServiceFields* service) {
  std::ostringstream os;
  save_batch_result_json(os, result, service);
  return os.str();
}

}  // namespace hyperrec::io
