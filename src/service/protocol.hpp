// Wire protocol of the solve daemon: line-delimited JSON requests.
//
// One request per line, one response line per request, in order.  Ops:
//
//   {"op":"solve", "tenant":T?, "priority":P?, "id":I?, "job":{...}}
//       job = {"workload":KIND, "tasks":M?, "steps":N?, "universe":L?,
//              "seed":S?, "stream":J?, "name":NAME?}
//             — generated exactly like `hyperrec_cli --workload=KIND
//               --tasks=M --steps=N --universe=L --seed=S` job J (same rng
//               split, same machine), which is what makes daemon responses
//               bit-identical to one-shot CLI solves; or
//             {"trace":{"universes":[l_0,...],
//                       "steps":[[{"bits":[..],"demand":D?}, ...], ...]},
//              "name":NAME?}
//             — an inline synchronized trace, one requirement per task per
//               step, machine = local_only(universes).
//       → a full io/result_json v5 document (the "tenant"/"queue" fields
//         carry the admission telemetry), or a rejection line.
//   {"op":"stream_open", "tenant":T?, "id":I?, "universes":[l_0,...],
//    "trigger":SPEC?}
//       Opens a multiplexed streaming tenant on machine
//       local_only(universes).  The optional trigger spec is parsed
//       STRICTLY (see streaming/trigger_spec.hpp) and must equal the
//       daemon's fleet-wide spec — streaming policy is per-daemon, and a
//       mismatch is an error, never a silent override.
//       → {"ok":true, "stream":ID}
//   {"op":"stream_append", "stream":ID, "step":[{"bits":[..],"demand":D?},
//    ...], "id":I?}         → {"ok":true} (fire-and-forget into the mux)
//   {"op":"stream_flush", "stream":ID}   → {"ok":true}
//   {"op":"stream_result", "stream":ID}  → the stream's drained summary
//   {"op":"statz"}                       → the /statz metrics document
//   {"op":"shutdown"}                    → ack, then graceful drain
//
// Rejections and errors share one shape:
//   {"schema":"hyperrec-service","version":1,"ok":false,"id":I,
//    "reject":"rate"|"backpressure"|"draining","retry_after_ms":MS}
//   {"schema":"hyperrec-service","version":1,"ok":false,"id":I,
//    "error":"..."}
//
// All strings are RFC 8259-escaped; every number is a decimal integer.
//
// Member order is free at every level (an inline trace's "steps" may come
// before its "universes").  Unknown members are read in full — malformed
// JSON anywhere rejects the line — and then ignored; duplicate keys are an
// error.  parse_request reads a line in one pass (service/json.hpp): an
// inline trace's bit indices go straight into bitsets, with no value tree.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/batch_engine.hpp"
#include "service/admission.hpp"

namespace hyperrec::service {

enum class Op : std::uint8_t {
  kSolve,
  kStreamOpen,
  kStreamAppend,
  kStreamFlush,
  kStreamResult,
  kStatz,
  kShutdown,
};

/// A solve job: either a generated workload (CLI-identical derivation) or
/// an inline trace.  `inline_trace` set means inline.
struct JobSpec {
  std::string workload;  ///< family kind; empty for inline traces
  std::size_t tasks = 4;
  std::size_t steps = 96;
  std::size_t universe = 32;
  std::uint64_t seed = 1;
  std::uint64_t stream = 0;  ///< rng split index (CLI job position)
  std::string name;          ///< defaults to "<kind>-<stream>" / "inline"
  std::optional<MultiTaskTrace> inline_trace;
  std::vector<std::size_t> inline_universes;
};

/// One task's requirement in a stream_append, before it is sized against
/// the stream's machine (the service owns the stream table and validates
/// bit indices against the task's universe when it builds the bitset).
struct StepRequirement {
  std::vector<std::size_t> bits;
  std::uint32_t demand = 0;
};

struct Request {
  Op op = Op::kStatz;
  std::string tenant = "default";
  std::uint64_t priority = 0;
  std::string id;  ///< client correlation id, echoed in service lines
  JobSpec job;                         // kSolve
  std::size_t stream = 0;              // stream ops
  std::vector<std::size_t> universes;  // kStreamOpen
  std::string trigger;                 // kStreamOpen (optional, strict)
  std::vector<StepRequirement> step;   // kStreamAppend
};

/// Parses one request line; malformed JSON, unknown ops, missing or
/// ill-typed fields throw PreconditionError (the daemon answers with an
/// error line naming the problem).
[[nodiscard]] Request parse_request(const std::string& line);

/// Materializes the BatchJob for a spec — the generated path replicates
/// hyperrec_cli's derivation exactly (root seed, split index, machine).
[[nodiscard]] engine::BatchJob make_job(const JobSpec& spec);

// Response lines (no trailing newline; the transport appends it).
[[nodiscard]] std::string error_line(const std::string& id,
                                     const std::string& message);
[[nodiscard]] std::string reject_line(const std::string& id,
                                      RejectReason reason,
                                      std::chrono::milliseconds retry_after);
[[nodiscard]] std::string ack_line(const std::string& id);
[[nodiscard]] std::string stream_opened_line(const std::string& id,
                                             std::size_t stream);

}  // namespace hyperrec::service
