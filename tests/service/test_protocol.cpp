// Wire protocol: request parsing (strict — malformed requests throw with a
// message naming the problem), CLI-identical job derivation, and the
// service response line shapes.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <string>

#include "service/json.hpp"
#include "support/ensure.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace hyperrec::service {
namespace {

TEST(Protocol, ParsesAGeneratedSolveRequest) {
  const Request request = parse_request(
      R"({"op":"solve","tenant":"acme","priority":7,"id":"r1",)"
      R"("job":{"workload":"phased","tasks":3,"steps":48,"universe":16,)"
      R"("seed":42,"stream":2}})");
  EXPECT_EQ(request.op, Op::kSolve);
  EXPECT_EQ(request.tenant, "acme");
  EXPECT_EQ(request.priority, 7u);
  EXPECT_EQ(request.id, "r1");
  EXPECT_EQ(request.job.workload, "phased");
  EXPECT_EQ(request.job.tasks, 3u);
  EXPECT_EQ(request.job.steps, 48u);
  EXPECT_EQ(request.job.universe, 16u);
  EXPECT_EQ(request.job.seed, 42u);
  EXPECT_EQ(request.job.stream, 2u);
  EXPECT_EQ(request.job.name, "phased-2");  // CLI naming convention
  EXPECT_FALSE(request.job.inline_trace.has_value());
}

TEST(Protocol, DefaultsMatchTheCli) {
  const Request request =
      parse_request(R"({"op":"solve","job":{"workload":"random"}})");
  EXPECT_EQ(request.tenant, "default");
  EXPECT_EQ(request.priority, 0u);
  EXPECT_EQ(request.job.tasks, 4u);
  EXPECT_EQ(request.job.steps, 96u);
  EXPECT_EQ(request.job.universe, 32u);
  EXPECT_EQ(request.job.seed, 1u);
  EXPECT_EQ(request.job.name, "random-0");
}

TEST(Protocol, GeneratedJobIsBitIdenticalToDirectDerivation) {
  const Request request = parse_request(
      R"({"op":"solve","job":{"workload":"bursty","tasks":2,"steps":30,)"
      R"("universe":10,"seed":9,"stream":3}})");
  const engine::BatchJob job = make_job(request.job);

  // The reference: exactly what hyperrec_cli does for job 3 of a
  // --workload=bursty --seed=9 batch.
  Xoshiro256 root(9);
  Xoshiro256 rng = root.split(3);
  const MultiTaskTrace expected =
      workload::make_multi_family("bursty", 2, 30, 10, rng);

  ASSERT_EQ(job.trace.task_count(), expected.task_count());
  ASSERT_EQ(job.trace.steps(), expected.steps());
  for (std::size_t j = 0; j < expected.task_count(); ++j) {
    const TaskTrace& got = job.trace.task(j);
    const TaskTrace& want = expected.task(j);
    ASSERT_EQ(got.local_universe(), want.local_universe());
    for (std::size_t t = 0; t < expected.steps(); ++t) {
      EXPECT_EQ(got.at(t).local, want.at(t).local)
          << "task " << j << " step " << t;
      EXPECT_EQ(got.at(t).private_demand, want.at(t).private_demand);
    }
  }
  EXPECT_EQ(job.name, "bursty-3");
  ASSERT_EQ(job.machine.task_count(), 2u);
}

TEST(Protocol, ParsesAnInlineTrace) {
  const Request request = parse_request(
      R"({"op":"solve","job":{"name":"handmade","trace":{)"
      R"("universes":[4,3],)"
      R"("steps":[[{"bits":[0,2]},{"bits":[1],"demand":2}],)"
      R"(         [{"bits":[3]},{"bits":[0]}]]}}})");
  ASSERT_TRUE(request.job.inline_trace.has_value());
  const MultiTaskTrace& trace = *request.job.inline_trace;
  ASSERT_EQ(trace.task_count(), 2u);
  ASSERT_EQ(trace.steps(), 2u);
  EXPECT_EQ(trace.task(0).local_universe(), 4u);
  EXPECT_EQ(trace.task(1).local_universe(), 3u);
  EXPECT_TRUE(trace.task(0).at(0).local.test(0));
  EXPECT_TRUE(trace.task(0).at(0).local.test(2));
  EXPECT_FALSE(trace.task(0).at(0).local.test(1));
  EXPECT_EQ(trace.task(1).at(0).private_demand, 2u);
  EXPECT_EQ(request.job.name, "handmade");
  const engine::BatchJob job = make_job(request.job);
  EXPECT_EQ(job.machine.task_count(), 2u);
}

TEST(Protocol, ParsesStreamOps) {
  const Request open = parse_request(
      R"({"op":"stream_open","tenant":"s","universes":[6,6],)"
      R"("trigger":"steps:4"})");
  EXPECT_EQ(open.op, Op::kStreamOpen);
  EXPECT_EQ(open.universes, (std::vector<std::size_t>{6, 6}));
  EXPECT_EQ(open.trigger, "steps:4");

  const Request append = parse_request(
      R"({"op":"stream_append","stream":3,)"
      R"("step":[{"bits":[0,5]},{"bits":[],"demand":1}]})");
  EXPECT_EQ(append.op, Op::kStreamAppend);
  EXPECT_EQ(append.stream, 3u);
  ASSERT_EQ(append.step.size(), 2u);
  EXPECT_EQ(append.step[0].bits, (std::vector<std::size_t>{0, 5}));
  EXPECT_TRUE(append.step[1].bits.empty());
  EXPECT_EQ(append.step[1].demand, 1u);

  EXPECT_EQ(parse_request(R"({"op":"stream_flush","stream":1})").op,
            Op::kStreamFlush);
  EXPECT_EQ(parse_request(R"({"op":"stream_result","stream":1})").op,
            Op::kStreamResult);
  EXPECT_EQ(parse_request(R"({"op":"statz"})").op, Op::kStatz);
  EXPECT_EQ(parse_request(R"({"op":"shutdown"})").op, Op::kShutdown);
}

TEST(Protocol, MalformedRequestsThrowNamingTheProblem) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "JSON"},
      {"not json", "JSON"},
      {R"({"op":"solve","job":{"workload":"phased"})", "JSON"},  // truncated
      {R"([1,2,3])", "object"},
      {R"({})", "op"},
      {R"({"op":"frobnicate"})", "unknown op"},
      {R"({"op":"solve"})", "job"},
      {R"({"op":"solve","job":{}})", "workload"},
      {R"({"op":"solve","job":{"workload":"no-such-family"}})",
       "no-such-family"},
      {R"({"op":"solve","job":{"workload":"phased","tasks":0}})",
       "at least 1"},
      {R"({"op":"solve","tenant":"","job":{"workload":"phased"}})",
       "tenant"},
      {R"({"op":"solve","priority":-1,"job":{"workload":"phased"}})",
       "non-negative"},
      {R"({"op":"solve","priority":"high","job":{"workload":"phased"}})",
       "integer"},
      {R"({"op":"solve","job":{"trace":{"universes":[],"steps":[]}}})",
       "universes"},
      {R"({"op":"solve","job":{"trace":{"universes":[4],"steps":[]}}})",
       "at least one step"},
      {R"({"op":"solve","job":{"trace":{"universes":[4],)"
       R"("steps":[[{"bits":[4]}]]}}})",
       "outside"},
      {R"({"op":"solve","job":{"trace":{"universes":[4,4],)"
       R"("steps":[[{"bits":[0]}]]}}})",
       "per task"},
      // The requirement count is checked before any requirement.
      {R"({"op":"solve","job":{"trace":{"universes":[4,4],)"
       R"("steps":[[{"bits":5},{"bits":[]},{"bits":[]}]]}}})",
       "per task"},
      {R"({"op":"stream_open"})", "universes"},
      {R"({"op":"stream_append","stream":0})", "step"},
      {R"({"op":"stream_append","stream":0,"step":[]})", "non-empty"},
      {R"({"op":"stream_append","stream":0,"step":[{}]})", "bits"},
      {R"({"op":"solve","job":{"workload":"phased"},"op":"statz"})",
       "duplicate"},  // duplicate keys are a parse error, not last-wins
      // ... at every object level, read or not.
      {R"({"op":"solve","job":{"workload":"phased","seed":1,"seed":2}})",
       "duplicate"},
      {R"({"op":"solve","job":{"trace":{"universes":[4],)"
       R"("steps":[[{"bits":[0],"bits":[1]}]]}}})",
       "duplicate"},
      {R"({"op":"statz","extra":{"a":1,"b":{"c":0,"c":0}}})", "duplicate"},
      // Unknown members are validated before they are ignored.
      {R"({"op":"statz","extra":[1,]})", "JSON"},
      // RFC 8259 numbers: no leading zeros.
      {R"({"op":"solve","priority":007,"job":{"workload":"phased"}})",
       "leading zero"},
      {R"({"op":"solve","job":{"workload":"phased","tasks":02}})",
       "leading zero"},
      {R"({"op":"stream_append","stream":0,"step":[{"bits":[-01]}]})",
       "leading zero"},
      // Malformed JSON after a content problem still reads as malformed.
      {R"({"op":"solve","job":{"trace":{"universes":[4],)"
       R"("steps":[[{"bits":[9]}]]}}} trailing)",
       "trailing content"},
  };
  for (const auto& [line, expected] : cases) {
    try {
      (void)parse_request(line);
      FAIL() << "no exception for: " << line;
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
          << "message for `" << line << "` was: " << error.what();
    }
  }
}

TEST(Protocol, MemberOrderIsFreeAndUnknownMembersAreIgnored) {
  const Request canonical = parse_request(
      R"({"op":"solve","id":"r","job":{"name":"t","trace":{)"
      R"("universes":[4,3],)"
      R"("steps":[[{"bits":[0,2]},{"bits":[1],"demand":2}],)"
      R"(         [{"bits":[3]},{"bits":[0]}]]}}})");
  // Steps before universes, demand before bits, op last, and unknown
  // members (nested, at every level) that are read and dropped.
  const Request shuffled = parse_request(
      R"({"extra":{"deep":[1,{"x":null}]},"job":{"trace":{"steps":)"
      R"([[{"bits":[0,2],"note":"n"},{"demand":2,"bits":[1]}],)"
      R"( [{"bits":[3]},{"bits":[0]}]],"universes":[4,3],"v":true},)"
      R"("name":"t","w":-1.5e3},"id":"r","op":"solve"})");
  ASSERT_TRUE(canonical.job.inline_trace.has_value());
  ASSERT_TRUE(shuffled.job.inline_trace.has_value());
  const MultiTaskTrace& want = *canonical.job.inline_trace;
  const MultiTaskTrace& got = *shuffled.job.inline_trace;
  ASSERT_EQ(got.task_count(), want.task_count());
  ASSERT_EQ(got.steps(), want.steps());
  for (std::size_t j = 0; j < want.task_count(); ++j) {
    EXPECT_EQ(got.task(j).local_universe(), want.task(j).local_universe());
    for (std::size_t t = 0; t < want.steps(); ++t) {
      EXPECT_EQ(got.task(j).at(t).local, want.task(j).at(t).local);
      EXPECT_EQ(got.task(j).at(t).private_demand,
                want.task(j).at(t).private_demand);
    }
  }
  EXPECT_EQ(shuffled.job.inline_universes, canonical.job.inline_universes);
  EXPECT_EQ(shuffled.job.name, "t");
  EXPECT_EQ(shuffled.id, "r");

  // Steps that arrive before their universes are still range-checked.
  try {
    (void)parse_request(
        R"({"op":"solve","job":{"trace":{"steps":[[{"bits":[4]}]],)"
        R"("universes":[4]}}})");
    FAIL() << "bit 4 of a 4-switch task was accepted";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("outside"), std::string::npos)
        << error.what();
  }
}

TEST(Protocol, NumbersFollowRfc8259) {
  for (const char* bad : {"[01]", "[00]", "[-01]", "[-00]", "[007]",
                          "[01.5]", "[-]", "[1.]", "[.5]", "[1e]"}) {
    EXPECT_THROW((void)parse_json(bad), PreconditionError) << bad;
  }
  EXPECT_EQ(parse_json("[0]").as_array()[0].as_int(), 0);
  EXPECT_EQ(parse_json("[-0]").as_array()[0].as_int(), 0);
  EXPECT_EQ(parse_json("[10]").as_array()[0].as_int(), 10);
  EXPECT_DOUBLE_EQ(parse_json("[0.5]").as_array()[0].as_double(), 0.5);
  EXPECT_DOUBLE_EQ(parse_json("[0e2]").as_array()[0].as_double(), 0.0);
  EXPECT_DOUBLE_EQ(parse_json("[-0.25E+1]").as_array()[0].as_double(), -2.5);
  // Integers past int64 read as doubles, as before.
  EXPECT_EQ(parse_json("[9223372036854775808]").as_array()[0].kind(),
            JsonValue::Kind::kDouble);
}

TEST(Protocol, DeeplyNestedJsonIsRejectedNotAStackOverflow) {
  // The parser reads untrusted socket input; a '[[[[…' line must come back
  // as a parse error, not recurse the daemon into a stack overflow.
  const std::string open(100000, '[');
  try {
    (void)parse_json(open + std::string(100000, ']'));
    FAIL() << "no exception for 100k-deep nesting";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("nesting"), std::string::npos)
        << "message was: " << error.what();
  }
  // Unbalanced variant dies on depth too (never on end-of-input first).
  EXPECT_THROW((void)parse_json(open), PreconditionError);
  // Mixed object/array nesting counts both container kinds.
  std::string mixed;
  for (int i = 0; i < 200; ++i) mixed += R"({"k":[)";
  EXPECT_THROW((void)parse_json(mixed), PreconditionError);

  // parse_request counts the same levels, in members it skips and inside
  // the bits it streams.
  for (const std::string& line :
       {R"({"op":"statz","x":)" + open + "}",
        R"({"op":"solve","job":{"trace":{"universes":[4],"steps":[[{"bits":)" +
            std::string(60, '[') + std::string(60, ']') + "}]]}}}"}) {
    try {
      (void)parse_request(line);
      FAIL() << "no exception for deep nesting in a request";
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find("nesting"), std::string::npos)
          << "message was: " << error.what();
    }
  }

  // Sane depth stays parseable: 63 levels is comfortably within the limit.
  std::string sane(63, '[');
  sane += std::string(63, ']');
  EXPECT_EQ(parse_json(sane).as_array().size(), 1u);
}

TEST(Protocol, ResponseLinesAreWellFormedJson) {
  const std::string error = error_line("r1", "bad \"thing\"\n");
  const JsonValue error_doc = parse_json(error);
  EXPECT_EQ(error_doc.get("schema")->as_string(), "hyperrec-service");
  EXPECT_EQ(error_doc.get("id")->as_string(), "r1");
  EXPECT_FALSE(error_doc.get("ok")->as_bool());
  EXPECT_EQ(error_doc.get("error")->as_string(), "bad \"thing\"\n");

  const JsonValue reject = parse_json(reject_line(
      "r2", RejectReason::kRate, std::chrono::milliseconds{250}));
  EXPECT_EQ(reject.get("reject")->as_string(), "rate");
  EXPECT_EQ(reject.get("retry_after_ms")->as_int(), 250);

  const JsonValue ack = parse_json(ack_line(""));
  EXPECT_TRUE(ack.get("ok")->as_bool());

  const JsonValue opened = parse_json(stream_opened_line("r3", 17));
  EXPECT_EQ(opened.get("stream")->as_uint(), 17u);
}

}  // namespace
}  // namespace hyperrec::service
