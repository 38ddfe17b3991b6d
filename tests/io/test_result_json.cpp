// result_json writer: golden output (stable key order is part of the
// contract), RFC 8259 escaping, syntactic validity checked by a strict
// mini-parser, and absence of NaN/Inf (costs and durations are integral).
#include "io/result_json.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "engine/batch_engine.hpp"
#include "testutil/workload_instances.hpp"

namespace hyperrec::io {
namespace {

// --- strict recursive-descent JSON validator (RFC 8259 subset) -----------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int k = 1; k <= 4; ++k) {
            if (pos_ + k >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + k]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (text_[start] == '-' && pos_ == start + 1)) {
      return false;
    }
    if (peek() == '.') {
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    return true;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

engine::BatchResult handcrafted_result() {
  engine::BatchResult result;
  result.parallelism = 2;
  result.elapsed = std::chrono::microseconds{777};

  result.cache_enabled = true;
  result.cache_capacity = 16;
  result.cache_size = 1;
  result.cache_stats.hits = 3;
  result.cache_stats.misses = 2;
  result.cache_stats.coalesced = 1;
  result.cache_stats.coalesced_failures = 1;
  result.cache_stats.insertions = 2;
  result.cache_stats.refreshes = 4;
  result.cache_stats.evictions = 1;
  result.cache_stats.warm_hits = 1;

  engine::JobResult job;
  job.index = 0;
  job.name = "phased-0";
  job.ok = true;
  job.winner = "coord-descent";
  job.cache = engine::JobCacheOutcome::kMiss;
  job.warm_started = true;
  job.elapsed = std::chrono::microseconds{123};
  job.solution.breakdown.total = 42;
  job.solution.breakdown.hyper = 12;
  job.solution.breakdown.reconfig = 30;
  job.solution.breakdown.global_hyper = 0;
  job.solution.breakdown.partial_hyper_steps = 3;
  job.solution.lower_bound = 40;  // certified: gap = (42-40)*100/40
  job.solution.gap_pct = 5.0;
  engine::PortfolioEntry entry;
  entry.solver = "coord-descent";
  entry.total = 42;
  entry.elapsed = std::chrono::microseconds{99};
  entry.ok = true;
  job.entries.push_back(entry);
  result.jobs.push_back(std::move(job));

  engine::JobResult failed;
  failed.index = 1;
  failed.name = "bad";
  failed.ok = false;
  failed.error = "machine/trace mismatch";
  failed.elapsed = std::chrono::microseconds{4};
  result.jobs.push_back(std::move(failed));
  return result;
}

TEST(ResultJson, GoldenEmptyBatch) {
  engine::BatchResult result;
  result.parallelism = 4;
  result.elapsed = std::chrono::microseconds{0};
  EXPECT_EQ(batch_result_to_json(result),
            "{\"schema\":\"hyperrec-batch-result\",\"version\":6,"
            "\"parallelism\":4,\"elapsed_us\":0,\"job_count\":0,"
            "\"tenant\":null,\"queue\":null,"
            "\"cache\":{\"enabled\":false,\"capacity\":0,\"size\":0,"
            "\"hits\":0,\"misses\":0,\"coalesced\":0,"
            "\"coalesced_failures\":0,\"insertions\":0,"
            "\"refreshes\":0,\"evictions\":0,\"expirations\":0,"
            "\"collisions\":0,\"warm_hits\":0},\"fleet\":null,"
            "\"jobs\":[]}\n");
}

TEST(ResultJson, GoldenTwoJobBatchWithStableKeyOrder) {
  EXPECT_EQ(
      batch_result_to_json(handcrafted_result()),
      "{\"schema\":\"hyperrec-batch-result\",\"version\":6,"
      "\"parallelism\":2,\"elapsed_us\":777,\"job_count\":2,"
      "\"tenant\":null,\"queue\":null,"
      "\"cache\":{\"enabled\":true,\"capacity\":16,\"size\":1,"
      "\"hits\":3,\"misses\":2,\"coalesced\":1,"
      "\"coalesced_failures\":1,\"insertions\":2,"
      "\"refreshes\":4,\"evictions\":1,\"expirations\":0,\"collisions\":0,"
      "\"warm_hits\":1},\"fleet\":null,\"jobs\":["
      "{\"index\":0,\"name\":\"phased-0\",\"ok\":true,\"error\":\"\","
      "\"winner\":\"coord-descent\",\"cache\":\"miss\","
      "\"warm_started\":true,\"streamed\":false,\"elapsed_us\":123,"
      "\"cost\":{\"total\":42,\"hyper\":12,\"reconfig\":30,"
      "\"global_hyper\":0,\"partial_hyper_steps\":3},"
      "\"lower_bound\":40,\"gap_pct\":5.0000,"
      "\"solvers\":[{\"name\":\"coord-descent\",\"ok\":true,\"total\":42,"
      "\"elapsed_us\":99}],\"windows\":[]},"
      "{\"index\":1,\"name\":\"bad\",\"ok\":false,"
      "\"error\":\"machine/trace mismatch\",\"winner\":\"\","
      "\"cache\":\"bypass\",\"warm_started\":false,\"streamed\":false,"
      "\"elapsed_us\":4,\"cost\":{\"total\":0,\"hyper\":0,\"reconfig\":0,"
      "\"global_hyper\":0,\"partial_hyper_steps\":0},"
      "\"lower_bound\":null,\"gap_pct\":null,\"solvers\":[],"
      "\"windows\":[]}]}\n");
}

TEST(ResultJson, GoldenStreamedJobWithWindows) {
  engine::BatchResult result;
  result.parallelism = 1;
  result.elapsed = std::chrono::microseconds{900};

  engine::JobResult job;
  job.index = 0;
  job.name = "stream-0";
  job.ok = true;
  job.winner = "streaming";
  job.streamed = true;
  job.elapsed = std::chrono::microseconds{456};
  job.solution.breakdown.total = 99;
  job.solution.breakdown.hyper = 40;
  job.solution.breakdown.reconfig = 59;
  job.solution.breakdown.partial_hyper_steps = 5;

  streaming::WindowReport first;
  first.index = 0;
  first.trigger = streaming::TriggerKind::kInitial;
  first.window_lo = 0;
  first.window_hi = 1;
  first.ok = true;
  first.winner = "aligned-dp";
  first.elapsed = std::chrono::microseconds{11};
  first.window_cost = 7;
  first.published_cost = 7;
  job.windows.push_back(first);

  streaming::WindowReport second;
  second.index = 1;
  second.trigger = streaming::TriggerKind::kStepCount;
  second.window_lo = 4;
  second.window_hi = 12;
  second.ok = true;
  second.winner = "cache";
  second.cache = cache::CacheOutcome::kHit;
  second.warm_started = true;
  second.elapsed = std::chrono::microseconds{22};
  second.window_cost = 31;
  second.published_cost = 99;
  second.splice_prefix_boundaries = 2;
  job.windows.push_back(second);
  result.jobs.push_back(std::move(job));

  EXPECT_EQ(
      batch_result_to_json(result),
      "{\"schema\":\"hyperrec-batch-result\",\"version\":6,"
      "\"parallelism\":1,\"elapsed_us\":900,\"job_count\":1,"
      "\"tenant\":null,\"queue\":null,"
      "\"cache\":{\"enabled\":false,\"capacity\":0,\"size\":0,"
      "\"hits\":0,\"misses\":0,\"coalesced\":0,"
      "\"coalesced_failures\":0,\"insertions\":0,"
      "\"refreshes\":0,\"evictions\":0,\"expirations\":0,\"collisions\":0,"
      "\"warm_hits\":0},\"fleet\":null,\"jobs\":["
      "{\"index\":0,\"name\":\"stream-0\",\"ok\":true,\"error\":\"\","
      "\"winner\":\"streaming\",\"cache\":\"bypass\","
      "\"warm_started\":false,\"streamed\":true,\"elapsed_us\":456,"
      "\"cost\":{\"total\":99,\"hyper\":40,\"reconfig\":59,"
      "\"global_hyper\":0,\"partial_hyper_steps\":5},"
      "\"lower_bound\":null,\"gap_pct\":null,\"solvers\":[],"
      "\"windows\":["
      "{\"index\":0,\"trigger\":\"initial\",\"lo\":0,\"hi\":1,"
      "\"ok\":true,\"error\":\"\",\"winner\":\"aligned-dp\","
      "\"cache\":\"bypass\","
      "\"warm_started\":false,\"elapsed_us\":11,\"window_cost\":7,"
      "\"published_cost\":7,\"prefix_boundaries\":0},"
      "{\"index\":1,\"trigger\":\"step-count\",\"lo\":4,\"hi\":12,"
      "\"ok\":true,\"error\":\"\",\"winner\":\"cache\","
      "\"cache\":\"hit\","
      "\"warm_started\":true,\"elapsed_us\":22,\"window_cost\":31,"
      "\"published_cost\":99,\"prefix_boundaries\":2}]}]}\n");
}

TEST(ResultJson, GoldenFleetSummary) {
  engine::BatchResult result;
  result.parallelism = 2;
  result.elapsed = std::chrono::microseconds{55};
  result.cache_enabled = true;
  result.cache_capacity = 8;
  result.cache_size = 2;
  result.cache_stats.hits = 5;
  result.cache_stats.misses = 2;
  result.cache_stats.insertions = 2;
  result.cache_stats.refreshes = 1;

  streaming::FleetStats fleet;
  fleet.streams = 2;
  fleet.accepted = 20;
  fleet.applied = 18;
  fleet.resolves = 6;
  fleet.failed_windows = 1;
  fleet.dropped = 2;
  fleet.publications = 19;
  fleet.failures = 1;
  result.fleet = fleet;

  streaming::StreamSummary healthy;
  healthy.id = 0;
  healthy.steps = 10;
  healthy.resolves = 4;
  healthy.epoch = 11;
  healthy.published_cost = 37;
  result.fleet_streams.push_back(healthy);
  streaming::StreamSummary poisoned;
  poisoned.id = 1;
  poisoned.steps = 8;
  poisoned.resolves = 2;
  poisoned.failed_windows = 1;
  poisoned.epoch = 8;
  poisoned.poisoned = true;  // faulted before any successful window
  result.fleet_streams.push_back(poisoned);

  EXPECT_EQ(
      batch_result_to_json(result),
      "{\"schema\":\"hyperrec-batch-result\",\"version\":6,"
      "\"parallelism\":2,\"elapsed_us\":55,\"job_count\":0,"
      "\"tenant\":null,\"queue\":null,"
      "\"cache\":{\"enabled\":true,\"capacity\":8,\"size\":2,"
      "\"hits\":5,\"misses\":2,\"coalesced\":0,"
      "\"coalesced_failures\":0,\"insertions\":2,"
      "\"refreshes\":1,\"evictions\":0,\"expirations\":0,\"collisions\":0,"
      "\"warm_hits\":0},\"fleet\":"
      "{\"streams\":2,\"accepted\":20,\"applied\":18,\"resolves\":6,"
      "\"failed_windows\":1,\"dropped\":2,\"publications\":19,"
      "\"failures\":1,\"per_stream\":["
      "{\"id\":0,\"steps\":10,\"resolves\":4,\"failed_windows\":0,"
      "\"epoch\":11,\"poisoned\":false,\"published_cost\":37},"
      "{\"id\":1,\"steps\":8,\"resolves\":2,\"failed_windows\":1,"
      "\"epoch\":8,\"poisoned\":true,\"published_cost\":null}]},"
      "\"jobs\":[]}\n");
  EXPECT_TRUE(JsonChecker(batch_result_to_json(result)).valid());
}

TEST(ResultJson, GoldenServiceEnvelopeCarriesTenantAndQueue) {
  engine::BatchResult result;
  result.parallelism = 1;
  result.elapsed = std::chrono::microseconds{10};

  ServiceFields service;
  service.tenant = "acme";
  service.priority = 7;
  service.queue_depth = 3;
  service.wait = std::chrono::microseconds{250};
  EXPECT_EQ(batch_result_to_json(result, &service),
            "{\"schema\":\"hyperrec-batch-result\",\"version\":6,"
            "\"parallelism\":1,\"elapsed_us\":10,\"job_count\":0,"
            "\"tenant\":\"acme\","
            "\"queue\":{\"priority\":7,\"depth\":3,\"wait_us\":250},"
            "\"cache\":{\"enabled\":false,\"capacity\":0,\"size\":0,"
            "\"hits\":0,\"misses\":0,\"coalesced\":0,"
            "\"coalesced_failures\":0,\"insertions\":0,"
            "\"refreshes\":0,\"evictions\":0,\"expirations\":0,"
            "\"collisions\":0,\"warm_hits\":0},\"fleet\":null,"
            "\"jobs\":[]}\n");
  EXPECT_TRUE(JsonChecker(batch_result_to_json(result, &service)).valid());

  // The envelope is strictly additive: stripping it yields the CLI document.
  const std::string with = batch_result_to_json(result, &service);
  const std::string without = batch_result_to_json(result);
  EXPECT_NE(with, without);
  EXPECT_NE(without.find("\"tenant\":null,\"queue\":null"),
            std::string::npos);
}

TEST(ResultJson, HostileStringsAreEscapedAndStillValidJson) {
  engine::BatchResult result;
  result.parallelism = 1;
  engine::JobResult job;
  job.index = 0;
  job.name = "quote\" backslash\\ newline\n tab\t bell\x07 end";
  job.error = std::string("nul\x01" "byte");
  job.winner = "naïve-ütf8";
  result.jobs.push_back(std::move(job));

  const std::string json = batch_result_to_json(result);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("quote\\\""), std::string::npos);
  EXPECT_NE(json.find("backslash\\\\"), std::string::npos);
  EXPECT_NE(json.find("newline\\n"), std::string::npos);
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("naïve-ütf8"), std::string::npos);
}

TEST(ResultJson, JsonQuoteEscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_quote(""), "\"\"");
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("\b\f\n\r\t"), "\"\\b\\f\\n\\r\\t\"");
  EXPECT_EQ(json_quote(std::string("\x00\x1f", 2)), "\"\\u0000\\u001f\"");
  // DEL and UTF-8 bytes pass through unescaped.
  EXPECT_EQ(json_quote("\x7f naïve"), "\"\x7f naïve\"");
}

TEST(ResultJson, RealEngineOutputParsesAndIsNaNFree) {
  std::vector<engine::BatchJob> jobs;
  for (auto& instance :
       testutil::seeded_workload_instances(2, 16, 8, 0x10AD)) {
    engine::BatchJob job;
    job.trace = std::move(instance.trace);
    job.machine = std::move(instance.machine);
    job.name = instance.name;
    jobs.push_back(std::move(job));
  }
  engine::BatchEngineConfig config;
  config.portfolio.solvers = {"aligned-dp", "greedy-w8"};
  const engine::BatchResult result =
      engine::BatchEngine(std::move(config)).solve(jobs);

  const std::string json = batch_result_to_json(result);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // A NaN/Inf literal could only sit in a value position — right after a
  // ':', ',' or '['.  (A bare substring scan would trip on the "tenant"
  // key, which contains "nan".)
  for (const std::string forbidden : {"nan", "inf", "NaN", "Inf"}) {
    for (const char before : {':', ',', '['}) {
      EXPECT_EQ(json.find(before + forbidden), std::string::npos)
          << before << forbidden;
    }
  }
}

TEST(ResultJson, StreamAndStringOverloadsAgree) {
  const engine::BatchResult result = handcrafted_result();
  std::ostringstream os;
  save_batch_result_json(os, result);
  EXPECT_EQ(os.str(), batch_result_to_json(result));
}

}  // namespace
}  // namespace hyperrec::io
