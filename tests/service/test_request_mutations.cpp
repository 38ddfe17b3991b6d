// Seeded mutation test for request parsing.  Valid request lines — inline
// traces of every workload family, each stream op, a generated solve and
// statz — are mutated with a seeded rng: byte flips, byte deletes, inserted
// structural characters, truncations, duplicated members and reordered
// members.  On every line:
//   1. parse_request returns or throws PreconditionError, nothing else;
//   2. a line that parse_json rejects, parse_request rejects too;
//   3. a member reordering of a valid line parses to the same Request, with
//      a bit-identical trace, and a duplicated member is rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "io/result_json.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "support/ensure.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace hyperrec::service {
namespace {

/// An inline solve line for `trace`; every third requirement carries its
/// demand, so the demand member is exercised too.
std::string inline_line(const MultiTaskTrace& trace, const std::string& id) {
  std::string out = R"({"op":"solve","id":")" + id +
                    R"(","job":{"name":")" + id + R"(","trace":{"universes":[)";
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    if (j > 0) out += ',';
    out += std::to_string(trace.task(j).local_universe());
  }
  out += R"(],"steps":[)";
  for (std::size_t t = 0; t < trace.steps(); ++t) {
    out += t > 0 ? ",[" : "[";
    for (std::size_t j = 0; j < trace.task_count(); ++j) {
      const ContextRequirement& req = trace.task(j).at(t);
      out += j > 0 ? R"(,{"bits":[)" : R"({"bits":[)";
      bool first = true;
      req.local.for_each_set([&](std::size_t bit) {
        if (!first) out += ',';
        first = false;
        out += std::to_string(bit);
      });
      out += ']';
      if ((t + j) % 3 == 0) {
        out += R"(,"demand":)" + std::to_string(req.private_demand + t);
      }
      out += '}';
    }
    out += ']';
  }
  return out + "]}}}";
}

std::vector<std::string> valid_lines() {
  std::vector<std::string> lines;
  const std::vector<std::string>& kinds = workload::family_names();
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    Xoshiro256 rng(100 + i);
    lines.push_back(inline_line(
        workload::make_multi_family(kinds[i], 2 + i % 2, 6, 9, rng), kinds[i]));
  }
  lines.push_back(
      R"({"op":"solve","tenant":"acme","priority":3,"id":"g",)"
      R"("job":{"workload":"bursty","tasks":3,"steps":20,"universe":10,)"
      R"("seed":11,"stream":2}})");
  lines.push_back(
      R"({"op":"stream_open","tenant":"s","id":"o","universes":[6,4],)"
      R"("trigger":"steps:4"})");
  lines.push_back(
      R"({"op":"stream_append","stream":3,"id":"a",)"
      R"("step":[{"bits":[0,5],"demand":2},{"bits":[]}]})");
  lines.push_back(R"({"op":"stream_flush","stream":1,"id":"f"})");
  lines.push_back(R"({"op":"stream_result","stream":1})");
  lines.push_back(R"({"op":"statz","tenant":"t"})");
  return lines;
}

/// Writes a DOM back as JSON with every object's members in a random order.
/// When `duplicate` is set, one member of the object numbered `duplicate`
/// (in writing order) is written twice.
class Rewriter {
 public:
  Rewriter(Xoshiro256& rng, int duplicate) : rng_(rng), target_(duplicate) {}

  void write(const JsonValue& value, std::string& out) {
    switch (value.kind()) {
      case JsonValue::Kind::kNull: out += "null"; return;
      case JsonValue::Kind::kBool:
        out += value.as_bool() ? "true" : "false";
        return;
      case JsonValue::Kind::kInt: out += std::to_string(value.as_int()); return;
      case JsonValue::Kind::kDouble:
        ADD_FAILURE() << "the valid lines hold no doubles";
        return;
      case JsonValue::Kind::kString: out += io::json_quote(value.as_string()); return;
      case JsonValue::Kind::kArray: {
        out += '[';
        bool first = true;
        for (const JsonValue& element : value.as_array()) {
          if (!first) out += ',';
          first = false;
          write(element, out);
        }
        out += ']';
        return;
      }
      case JsonValue::Kind::kObject: {
        std::vector<const JsonObject::value_type*> members;
        for (const auto& member : value.as_object()) members.push_back(&member);
        std::shuffle(members.begin(), members.end(), rng_);
        if (objects_++ == target_ && !members.empty()) {
          members.push_back(members[rng_.uniform(members.size())]);
          std::shuffle(members.begin(), members.end(), rng_);
          duplicated_ = true;
        }
        out += '{';
        bool first = true;
        for (const JsonObject::value_type* member : members) {
          if (!first) out += ',';
          first = false;
          out += io::json_quote(member->first) + ':';
          write(member->second, out);
        }
        out += '}';
        return;
      }
    }
  }

  [[nodiscard]] int objects() const { return objects_; }
  [[nodiscard]] bool duplicated() const { return duplicated_; }

 private:
  Xoshiro256& rng_;
  int target_;
  int objects_ = 0;
  bool duplicated_ = false;
};

std::string mutate_bytes(std::string line, Xoshiro256& rng) {
  static const std::string kStructural = "{}[],:\"";
  const std::size_t size = line.size();
  switch (rng.uniform(4)) {
    case 0:  // byte flip
      if (size > 0) line[rng.uniform(size)] = static_cast<char>(rng() & 0xFF);
      break;
    case 1:  // byte delete
      if (size > 0) line.erase(rng.uniform(size), 1);
      break;
    case 2:  // inserted structural character
      line.insert(rng.uniform(size + 1), 1,
                  kStructural[rng.uniform(kStructural.size())]);
      break;
    default:  // truncation
      line.resize(rng.uniform(size + 1));
  }
  return line;
}

void expect_same_request(const Request& got, const Request& want,
                         const std::string& line) {
  EXPECT_EQ(got.op, want.op) << line;
  EXPECT_EQ(got.tenant, want.tenant) << line;
  EXPECT_EQ(got.priority, want.priority) << line;
  EXPECT_EQ(got.id, want.id) << line;
  EXPECT_EQ(got.stream, want.stream) << line;
  EXPECT_EQ(got.universes, want.universes) << line;
  EXPECT_EQ(got.trigger, want.trigger) << line;
  ASSERT_EQ(got.step.size(), want.step.size()) << line;
  for (std::size_t j = 0; j < want.step.size(); ++j) {
    EXPECT_EQ(got.step[j].bits, want.step[j].bits) << line;
    EXPECT_EQ(got.step[j].demand, want.step[j].demand) << line;
  }
  const JobSpec& a = got.job;
  const JobSpec& b = want.job;
  EXPECT_EQ(a.workload, b.workload) << line;
  EXPECT_EQ(a.tasks, b.tasks) << line;
  EXPECT_EQ(a.steps, b.steps) << line;
  EXPECT_EQ(a.universe, b.universe) << line;
  EXPECT_EQ(a.seed, b.seed) << line;
  EXPECT_EQ(a.stream, b.stream) << line;
  EXPECT_EQ(a.name, b.name) << line;
  EXPECT_EQ(a.inline_universes, b.inline_universes) << line;
  ASSERT_EQ(a.inline_trace.has_value(), b.inline_trace.has_value()) << line;
  if (!b.inline_trace.has_value()) return;
  const MultiTaskTrace& x = *a.inline_trace;
  const MultiTaskTrace& y = *b.inline_trace;
  ASSERT_EQ(x.task_count(), y.task_count()) << line;
  ASSERT_EQ(x.steps(), y.steps()) << line;
  for (std::size_t j = 0; j < y.task_count(); ++j) {
    ASSERT_EQ(x.task(j).local_universe(), y.task(j).local_universe()) << line;
    for (std::size_t t = 0; t < y.steps(); ++t) {
      EXPECT_EQ(x.task(j).at(t).local, y.task(j).at(t).local) << line;
      EXPECT_EQ(x.task(j).at(t).private_demand,
                y.task(j).at(t).private_demand)
          << line;
    }
  }
}

/// Parses `line` both ways; checks properties 1 and 2 and returns whether
/// parse_request accepted it.
bool check_line(const std::string& line, Request* request) {
  bool json_ok = true;
  try {
    (void)parse_json(line);
  } catch (const PreconditionError&) {
    json_ok = false;
  }
  try {
    *request = parse_request(line);
  } catch (const PreconditionError&) {
    return false;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "parse_request threw " << error.what() << " for "
                  << line;
    return false;
  }
  EXPECT_TRUE(json_ok) << "parse_request accepted malformed JSON: " << line;
  return true;
}

TEST(RequestMutations, ByteMutationsReturnOrThrowPreconditionError) {
  Xoshiro256 rng(2004);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const std::string& valid : valid_lines()) {
    Request request;
    ASSERT_TRUE(check_line(valid, &request)) << valid;
    for (int round = 0; round < 400; ++round) {
      std::string line = valid;
      const std::uint64_t mutations = 1 + rng.uniform(3);
      for (std::uint64_t k = 0; k < mutations; ++k) {
        line = mutate_bytes(std::move(line), rng);
      }
      (check_line(line, &request) ? accepted : rejected) += 1;
    }
  }
  // Both outcomes occur, so neither property holds vacuously.
  EXPECT_GT(accepted, 50u);
  EXPECT_GT(rejected, 1000u);
}

TEST(RequestMutations, ReorderedMembersParseToTheSameRequest) {
  Xoshiro256 rng(8259);
  for (const std::string& valid : valid_lines()) {
    Request want;
    ASSERT_TRUE(check_line(valid, &want)) << valid;
    const JsonValue doc = parse_json(valid);
    for (int round = 0; round < 40; ++round) {
      std::string line;
      Rewriter rewriter(rng, -1);
      rewriter.write(doc, line);
      Request got;
      ASSERT_TRUE(check_line(line, &got)) << line;
      expect_same_request(got, want, line);
    }
  }
}

TEST(RequestMutations, DuplicatedMembersAreRejectedAtEveryLevel) {
  Xoshiro256 rng(1);
  for (const std::string& valid : valid_lines()) {
    const JsonValue doc = parse_json(valid);
    Rewriter counter(rng, -1);
    std::string ignored;
    counter.write(doc, ignored);
    for (int target = 0; target < counter.objects(); ++target) {
      std::string line;
      Rewriter rewriter(rng, target);
      rewriter.write(doc, line);
      ASSERT_TRUE(rewriter.duplicated()) << line;
      EXPECT_THROW((void)parse_json(line), PreconditionError) << line;
      try {
        (void)parse_request(line);
        ADD_FAILURE() << "duplicate member accepted: " << line;
      } catch (const PreconditionError& error) {
        EXPECT_NE(std::string(error.what()).find("duplicate key"),
                  std::string::npos)
            << error.what();
      }
    }
  }
}

}  // namespace
}  // namespace hyperrec::service
