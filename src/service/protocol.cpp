#include "service/protocol.hpp"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string_view>

#include "io/result_json.hpp"
#include "service/json.hpp"
#include "support/ensure.hpp"
#include "support/rng.hpp"
#include "workload/generators.hpp"

namespace hyperrec::service {

namespace {

// parse_request reads the line once with a JsonReader.  Scalar members are
// kept as small DOM values and checked by the field helpers below; the bulk
// arrays (an inline trace's steps, a stream_append's step) are read by the
// streaming readers further down, which write bit indices straight into
// their final form.  Every problem the reading pass finds in the request's
// content is recorded, not thrown, so that malformed JSON anywhere in the
// line still wins; the checks then run in the order the protocol has always
// applied them, whatever the member order on the wire.

/// A stream_append's bits are sized against the stream's machine by the
/// service; only an inline trace knows its universes here.
constexpr std::uint64_t kUnsized = std::numeric_limits<std::uint64_t>::max();

const JsonValue* member(const JsonObject& object, const std::string& key) {
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

/// Why `value` (member `key`; nullptr when absent) is no valid count, or "".
std::string uint_problem(const JsonValue* value, const std::string& key) {
  if (value == nullptr) return {};
  if (value->kind() != JsonValue::Kind::kInt) {
    return "request field \"" + key + "\" must be an integer";
  }
  if (value->as_int() < 0) {
    return "request field \"" + key + "\" must be non-negative";
  }
  return {};
}

std::uint64_t uint_field(const JsonObject& object, const std::string& key,
                         std::uint64_t fallback) {
  const JsonValue* value = member(object, key);
  const std::string problem = uint_problem(value, key);
  HYPERREC_ENSURE(problem.empty(), problem);
  return value == nullptr ? fallback : value->as_uint();
}

std::string string_field(const JsonObject& object, const std::string& key,
                         std::string fallback) {
  const JsonValue* value = member(object, key);
  if (value == nullptr) return fallback;
  HYPERREC_ENSURE(value->kind() == JsonValue::Kind::kString,
                  "request field \"" + key + "\" must be a string");
  return value->as_string();
}

std::vector<std::size_t> universes_field(const JsonObject& object,
                                         const std::string& key) {
  const JsonValue* value = member(object, key);
  HYPERREC_ENSURE(value != nullptr,
                  "request needs a \"" + key + "\" array");
  std::vector<std::size_t> universes;
  for (const JsonValue& entry : value->as_array()) {
    const std::uint64_t universe = entry.as_uint();
    HYPERREC_ENSURE(universe >= 1, "task universes must be at least 1");
    universes.push_back(static_cast<std::size_t>(universe));
  }
  HYPERREC_ENSURE(!universes.empty(), "\"" + key + "\" must be non-empty");
  return universes;
}

/// Reads one object level.  `stream(key)` consumes the members it reads
/// itself and returns true; the scalar members named in `scalars` land in
/// `fields`, and any other member is validated and dropped.  A value that
/// is not an object reads as one without members, as `get` on a DOM value
/// of the wrong kind does.
template <typename Stream>
void read_members(JsonReader& reader,
                  std::initializer_list<std::string_view> scalars,
                  JsonObject& fields, Stream&& stream) {
  if (reader.peek() != JsonValue::Kind::kObject) {
    reader.skip();
    return;
  }
  std::string key;
  reader.begin_object();
  while (reader.next_member(key)) {
    if (stream(key)) continue;
    if (std::find(scalars.begin(), scalars.end(), key) != scalars.end()) {
      fields.emplace(key, reader.read_value());
    } else {
      reader.skip();
    }
  }
}

/// What read_array found: the first problem ("" when none; "JSON value is
/// not an array" when the value is no array) and the element count.
struct ArrayRead {
  bool is_array = true;
  std::string problem;
  std::size_t count = 0;
};

/// Reads an array, calling `element(i)` — which reads element i and returns
/// its problem, "" when none — until one has a problem; the elements after
/// it are only validated.
template <typename Element>
ArrayRead read_array(JsonReader& reader, Element&& element) {
  ArrayRead read;
  if (reader.peek() != JsonValue::Kind::kArray) {
    reader.skip();
    read.is_array = false;
    read.problem = "JSON value is not an array";
    return read;
  }
  reader.begin_array();
  while (reader.next_element()) {
    if (read.problem.empty()) {
      read.problem = element(read.count);
    } else {
      reader.skip();
    }
    ++read.count;
  }
  return read;
}

/// Reads a "bits" array, handing each index below `universe` to `set`.
template <typename Set>
std::string read_bits(JsonReader& reader, std::uint64_t universe, Set&& set) {
  return read_array(reader, [&](std::size_t) -> std::string {
           if (reader.peek() != JsonValue::Kind::kInt) {
             reader.skip();
             return "JSON value is not an integer";
           }
           const JsonNumber bit = reader.read_number();
           if (!bit.integral) return "JSON value is not an integer";
           if (bit.int_value < 0) return "JSON value is negative";
           if (static_cast<std::uint64_t>(bit.int_value) >= universe) {
             return "requirement bit " + std::to_string(bit.int_value) +
                    " outside the task's universe";
           }
           set(static_cast<std::size_t>(bit.int_value));
           return {};
         })
      .problem;
}

/// Reads one requirement {"bits":[...], "demand":D?}: its bits go to `set`,
/// its demand to `demand`.  Returns the first problem — bits before demand,
/// whatever the member order — or "".
template <typename Set>
std::string read_requirement(JsonReader& reader, std::uint64_t universe,
                             Set&& set, std::uint32_t& demand) {
  const char* const needs_bits = "step requirement needs a \"bits\" array";
  if (reader.peek() != JsonValue::Kind::kObject) {
    reader.skip();
    return needs_bits;
  }
  bool has_bits = false;
  std::string bits_problem;
  std::string demand_problem;
  std::string key;
  reader.begin_object();
  while (reader.next_member(key)) {
    if (key == "bits") {
      has_bits = true;
      bits_problem = read_bits(reader, universe, set);
    } else if (key == "demand") {
      const JsonValue value = reader.read_value();
      demand_problem = uint_problem(&value, key);
      if (demand_problem.empty() && value.as_uint() > 0xFFFFFFFFull) {
        demand_problem = "requirement demand out of range";
      } else if (demand_problem.empty()) {
        demand = static_cast<std::uint32_t>(value.as_uint());
      }
    } else {
      reader.skip();
    }
  }
  if (!has_bits) return needs_bits;
  return bits_problem.empty() ? demand_problem : bits_problem;
}

/// Reads one synchronized step of an inline trace, requirement j onto
/// tasks[j].  A wrong requirement count is its problem before any
/// requirement's own.  A step with a problem may leave some tasks one
/// requirement longer; the request is rejected anyway.
std::string read_row(JsonReader& reader, std::vector<TaskTrace>& tasks) {
  const ArrayRead row = read_array(reader, [&](std::size_t j) {
    if (j >= tasks.size()) {
      reader.skip();
      return std::string();
    }
    const std::size_t universe = tasks[j].local_universe();
    DynamicBitset local(universe);
    std::uint32_t demand = 0;
    std::string problem = read_requirement(
        reader, universe, [&](std::size_t bit) { local.set(bit); }, demand);
    tasks[j].push_back(ContextRequirement{std::move(local), demand});
    return problem;
  });
  if (!row.is_array || row.count == tasks.size()) return row.problem;
  return "step must carry exactly one requirement per task";
}

/// Reads an inline trace's "steps" into one trace per task.
std::string read_steps(JsonReader& reader,
                       const std::vector<std::size_t>& universes,
                       std::vector<TaskTrace>& tasks) {
  tasks.clear();
  for (const std::size_t universe : universes) tasks.emplace_back(universe);
  const ArrayRead steps = read_array(
      reader, [&](std::size_t) { return read_row(reader, tasks); });
  return steps.problem.empty() && steps.count == 0
             ? "inline trace needs at least one step"
             : steps.problem;
}

/// Reads a stream_append's "step" into `step`.
std::string read_step(JsonReader& reader, std::vector<StepRequirement>& step) {
  const ArrayRead read = read_array(reader, [&](std::size_t) {
    StepRequirement& req = step.emplace_back();
    return read_requirement(
        reader, kUnsized, [&](std::size_t bit) { req.bits.push_back(bit); },
        req.demand);
  });
  return read.problem.empty() && read.count == 0 ? "step must be non-empty"
                                                 : read.problem;
}

/// An inline trace as read.  Its steps stream straight into per-task traces
/// when valid universes came first; otherwise the steps' bytes wait in
/// `pending_steps` and are read once the universes are known.
struct TraceDraft {
  JsonObject fields;  ///< "universes"
  bool has_steps = false;
  std::optional<std::string_view> pending_steps;
  std::vector<TaskTrace> tasks;
  std::string problem;  ///< first problem in the steps, or ""
};

struct JobDraft {
  JsonObject fields;
  std::optional<TraceDraft> trace;
};

/// The universes already read into `fields` when they are valid, else
/// empty (parse_job reports their problem before any of the steps').
std::vector<std::size_t> usable_universes(const JsonObject& fields) {
  if (member(fields, "universes") == nullptr) return {};
  try {
    return universes_field(fields, "universes");
  } catch (const PreconditionError&) {
    return {};
  }
}

TraceDraft read_trace(JsonReader& reader) {
  TraceDraft trace;
  read_members(reader, {"universes"}, trace.fields,
               [&](const std::string& key) {
                 if (key != "steps") return false;
                 trace.has_steps = true;
                 const std::vector<std::size_t> universes =
                     usable_universes(trace.fields);
                 if (universes.empty()) {
                   trace.pending_steps = reader.skip();
                 } else {
                   trace.problem = read_steps(reader, universes, trace.tasks);
                 }
                 return true;
               });
  return trace;
}

JobDraft read_job(JsonReader& reader) {
  JobDraft job;
  read_members(reader,
               {"workload", "tasks", "steps", "universe", "seed", "stream",
                "name"},
               job.fields, [&](const std::string& key) {
                 if (key != "trace") return false;
                 job.trace = read_trace(reader);
                 return true;
               });
  return job;
}

JobSpec parse_job(JobDraft& job) {
  JobSpec spec;
  if (job.trace.has_value()) {
    TraceDraft& trace = *job.trace;
    spec.inline_universes = universes_field(trace.fields, "universes");
    HYPERREC_ENSURE(trace.has_steps,
                    "inline trace needs a \"steps\" array");
    if (trace.pending_steps.has_value()) {
      JsonReader steps(*trace.pending_steps);
      trace.problem = read_steps(steps, spec.inline_universes, trace.tasks);
    }
    HYPERREC_ENSURE(trace.problem.empty(), trace.problem);
    MultiTaskTrace parsed;
    for (TaskTrace& task : trace.tasks) parsed.add_task(std::move(task));
    spec.inline_trace = std::move(parsed);
    spec.name = string_field(job.fields, "name", "inline");
    return spec;
  }

  const JsonValue* workload = member(job.fields, "workload");
  HYPERREC_ENSURE(workload != nullptr,
                  "job needs either \"workload\" or \"trace\"");
  spec.workload = workload->as_string();
  bool known = false;
  for (const std::string& kind : workload::family_names()) {
    known = known || kind == spec.workload;
  }
  HYPERREC_ENSURE(known, "unknown workload family \"" + spec.workload + "\"");
  spec.tasks = static_cast<std::size_t>(uint_field(job.fields, "tasks", 4));
  spec.steps = static_cast<std::size_t>(uint_field(job.fields, "steps", 96));
  spec.universe =
      static_cast<std::size_t>(uint_field(job.fields, "universe", 32));
  spec.seed = uint_field(job.fields, "seed", 1);
  spec.stream = uint_field(job.fields, "stream", 0);
  HYPERREC_ENSURE(spec.tasks >= 1 && spec.steps >= 1 && spec.universe >= 1,
                  "job shape fields must be at least 1");
  spec.name = string_field(
      job.fields, "name", spec.workload + "-" + std::to_string(spec.stream));
  return spec;
}

}  // namespace

Request parse_request(const std::string& line) {
  JsonReader reader(line);
  const bool is_object = reader.peek() == JsonValue::Kind::kObject;
  JsonObject doc;
  std::optional<JobDraft> job;
  std::optional<std::string> step_problem;
  std::vector<StepRequirement> step;
  read_members(reader,
               {"op", "tenant", "priority", "id", "stream", "universes",
                "trigger"},
               doc, [&](const std::string& key) {
                 if (key == "job") {
                   job = read_job(reader);
                   return true;
                 }
                 if (key == "step") {
                   step.clear();
                   step_problem = read_step(reader, step);
                   return true;
                 }
                 return false;
               });
  reader.finish();
  HYPERREC_ENSURE(is_object, "request must be a JSON object");

  Request request;
  const std::string op = string_field(doc, "op", "");
  HYPERREC_ENSURE(!op.empty(), "request needs an \"op\" field");
  request.tenant = string_field(doc, "tenant", "default");
  HYPERREC_ENSURE(!request.tenant.empty(), "tenant name must be non-empty");
  request.priority = uint_field(doc, "priority", 0);
  request.id = string_field(doc, "id", "");

  if (op == "solve") {
    request.op = Op::kSolve;
    HYPERREC_ENSURE(job.has_value(), "solve request needs a \"job\" object");
    request.job = parse_job(*job);
  } else if (op == "stream_open") {
    request.op = Op::kStreamOpen;
    request.universes = universes_field(doc, "universes");
    request.trigger = string_field(doc, "trigger", "");
  } else if (op == "stream_append") {
    request.op = Op::kStreamAppend;
    request.stream = static_cast<std::size_t>(uint_field(doc, "stream", 0));
    HYPERREC_ENSURE(step_problem.has_value(),
                    "stream_append needs a \"step\" array");
    HYPERREC_ENSURE(step_problem->empty(), *step_problem);
    request.step = std::move(step);
  } else if (op == "stream_flush") {
    request.op = Op::kStreamFlush;
    request.stream = static_cast<std::size_t>(uint_field(doc, "stream", 0));
  } else if (op == "stream_result") {
    request.op = Op::kStreamResult;
    request.stream = static_cast<std::size_t>(uint_field(doc, "stream", 0));
  } else if (op == "statz") {
    request.op = Op::kStatz;
  } else if (op == "shutdown") {
    request.op = Op::kShutdown;
  } else {
    HYPERREC_ENSURE(false, "unknown op \"" + op + "\"");
  }
  return request;
}

engine::BatchJob make_job(const JobSpec& spec) {
  engine::BatchJob job;
  if (spec.inline_trace.has_value()) {
    job.trace = *spec.inline_trace;
  } else {
    // CLI-identical derivation: root seed, per-job split, same generator.
    Xoshiro256 root(spec.seed);
    Xoshiro256 rng = root.split(spec.stream);
    job.trace = workload::make_multi_family(spec.workload, spec.tasks,
                                            spec.steps, spec.universe, rng);
  }
  std::vector<std::size_t> locals;
  locals.reserve(job.trace.task_count());
  for (std::size_t j = 0; j < job.trace.task_count(); ++j) {
    locals.push_back(job.trace.task(j).local_universe());
  }
  job.machine = MachineSpec::local_only(locals);
  job.name = spec.name;
  return job;
}

namespace {

std::string service_prefix(const std::string& id) {
  return "{\"schema\":\"hyperrec-service\",\"version\":1,\"id\":" +
         io::json_quote(id);
}

}  // namespace

std::string error_line(const std::string& id, const std::string& message) {
  return service_prefix(id) + ",\"ok\":false,\"error\":" +
         io::json_quote(message) + "}";
}

std::string reject_line(const std::string& id, RejectReason reason,
                        std::chrono::milliseconds retry_after) {
  return service_prefix(id) + ",\"ok\":false,\"reject\":\"" +
         to_string(reason) +
         "\",\"retry_after_ms\":" + std::to_string(retry_after.count()) + "}";
}

std::string ack_line(const std::string& id) {
  return service_prefix(id) + ",\"ok\":true}";
}

std::string stream_opened_line(const std::string& id, std::size_t stream) {
  return service_prefix(id) + ",\"ok\":true,\"stream\":" +
         std::to_string(stream) + "}";
}

}  // namespace hyperrec::service
