// JSON serialisation of batch-engine results.
//
// Downstream tooling (dashboards, regression trackers, the hyperrec_cli
// driver) consumes batch results as JSON.  The writer emits a stable,
// documented schema:
//
//   {
//     "schema": "hyperrec-batch-result",
//     "version": 6,
//     "parallelism": <workers>,
//     "elapsed_us": <batch wall time>,
//     "job_count": <n>,
//     "tenant": null,                // solve-service responses only: the
//                                    // requesting tenant name
//     "queue": null,                 // solve-service responses only:
//       // { "priority": p,          // admission priority of the request
//       //   "depth": d,             // queue depth observed at admission
//       //   "wait_us": w }          // time spent queued before a worker
//     "cache": { "enabled": true|false, "capacity": c, "size": s,
//                "hits": h, "misses": m, "coalesced": q,
//                "coalesced_failures": cf, "insertions": i,
//                "refreshes": r, "evictions": e, "expirations": x,
//                "collisions": k, "warm_hits": w },
//                                    // zeros when disabled; counters are
//                                    // cumulative over the cache lifetime
//     "fleet": null,                 // multiplexed streaming replay only:
//       // { "streams": n, "accepted": a,   // appends accepted
//       //   "applied": p,                  // appends applied to engines
//       //   "resolves": r, "failed_windows": f, "dropped": d,
//       //   "publications": u, "failures": x,   // poisoned-stream faults
//       //   "per_stream": [                // one row per stream, id order
//       //     { "id": i, "steps": s, "resolves": r, "failed_windows": f,
//       //       "epoch": e,                // last published snapshot epoch
//       //       "poisoned": true|false,
//       //       "published_cost": c|null }, ... ] }
//     "jobs": [
//       {
//         "index": <input position>,
//         "name": "<label>",
//         "ok": true|false,
//         "error": "<exception text, empty when ok>",
//         "winner": "<solver name, \"cache\", or \"streaming\">",
//         "cache": "bypass"|"miss"|"hit"|"coalesced",
//         "warm_started": true|false,
//         "streamed": true|false,
//         "elapsed_us": <job wall time>,
//         "cost": { "total": t, "hyper": h, "reconfig": r,
//                   "global_hyper": g, "partial_hyper_steps": s },
//         "lower_bound": b|null,    // certified optimality floor
//                                   // (core/lower_bound.hpp); null when the
//                                   // job was not certified
//         "gap_pct": g|null,        // (total - b) * 100 / b, four decimals;
//                                   // null when uncertified or b <= 0
//         "solvers": [
//           { "name": "...", "ok": true|false, "total": t,
//             "elapsed_us": us }, ... ],
//         "windows": [              // streaming replay only; else []
//           { "index": k, "trigger": "initial"|"quota-repair"|"step-count"
//                                    |"demand-spike"|"rent-or-buy"
//                                    |"deadline-tick"|"flush",
//             "lo": a, "hi": b,     // solved steps [a, b)
//             "ok": true|false, "error": "...",
//             "winner": "<portfolio member, \"cache\" or \"coalesced\">",
//             "cache": "bypass"|"miss"|"hit"|"coalesced",
//             "warm_started": true|false,
//             "elapsed_us": us,     // window solve wall time
//             "window_cost": c,     // portfolio best over the window alone
//             "published_cost": p,  // spliced full-schedule cost
//             "prefix_boundaries": f }, ... ]  // boundaries frozen from
//       }, ... ]                               // the stable prefix
//   }
//
// v2 → v3: per-job "streamed" flag and "windows" array (streaming replay
// per-window timings, trigger kinds and splice stats); "winner" may now be
// "streaming".
//
// v3 → v4: top-level "fleet" object (StreamMultiplexer summary; null for
// non-multiplexed batches), cache "refreshes" counter (re-stores of a live
// entry, no longer folded into "insertions"), per-window "cache" outcome
// (a window "winner" may now also be "coalesced").
//
// v4 → v5: top-level "tenant" and "queue" fields (solve-service responses
// carry the requesting tenant and its admission telemetry; null for one-shot
// CLI batches — the rest of the document is bit-identical either way, which
// is how the serve smoke proves daemon answers match CLI answers), cache
// "coalesced_failures" counter (piggybacked waits whose leader threw).
//
// v5 → v6: per-job "lower_bound" / "gap_pct" fields (optimality
// certificates from core/lower_bound.hpp, attached when the engine or the
// hierarchical solver certifies a solve; null when no bound applies).
//
// Guarantees: keys always appear, in exactly this order (goldens may diff
// the output); every number is a decimal integer except "gap_pct", which is
// a finite non-negative decimal rendered with four fractional digits —
// NaN/Inf cannot occur; strings are escaped per RFC 8259.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "engine/batch_engine.hpp"

namespace hyperrec::io {

/// Service-layer envelope for a batch result: who asked and how the request
/// moved through the admission queue.  Serialized into the top-level
/// "tenant" / "queue" fields; a null pointer (the CLI path) writes both as
/// JSON null.
struct ServiceFields {
  std::string tenant;
  std::uint64_t priority = 0;
  std::uint64_t queue_depth = 0;       ///< depth observed at admission
  std::chrono::microseconds wait{0};   ///< admission-to-dequeue latency
};

void save_batch_result_json(std::ostream& os,
                            const engine::BatchResult& result,
                            const ServiceFields* service = nullptr);

/// Convenience: the same document as a string.
[[nodiscard]] std::string batch_result_to_json(
    const engine::BatchResult& result,
    const ServiceFields* service = nullptr);

/// `text` escaped per RFC 8259 and wrapped in quotes: quote, backslash and
/// control characters are escaped; all other bytes pass through (UTF-8
/// payloads stay intact).  The one JSON string escaper of the CLI and
/// daemon documents.
[[nodiscard]] std::string json_quote(const std::string& text);

}  // namespace hyperrec::io
