// Stable 128-bit instance fingerprints for the solve cache.
//
// The paper's cost models (§2, §4) are pure functions of (trace, machine,
// options), so solve results are safely memoizable once instances can be
// identified.  This module canonicalizes an instance into a byte string —
// tagged sections, fixed-width little-endian integers — and hashes it with
// a hand-rolled FNV-1a-128 (no third-party dependency).
//
// Instance key v2 layout ("hyperrec-instance-v2\0" prefix): per task the
// u64 universe and step count, one byte flagging any non-zero private
// demand, then per step the u32 demand (flagged tasks only) and the first
// ⌈universe/8⌉ bytes of the local requirement (the bits past the universe
// are kept zero by every mutator).  Every length is fixed by an earlier
// field, so the encoding stays injective; at 4 tasks × 96 steps × 32
// switches it is about a third of v1's u32-per-step, u64-per-word layout,
// which matters because the cache stores the bytes with every entry.
//
// The canonical bytes are retained alongside the fingerprint: SolveCache
// compares them on every hit, so even a forged or astronomically unlucky
// 128-bit collision can never return the wrong instance's solution.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "model/cost_switch.hpp"
#include "model/instance.hpp"
#include "model/machine.hpp"
#include "model/trace.hpp"

namespace hyperrec::cache {

struct Fingerprint128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool operator==(const Fingerprint128&) const noexcept =
      default;

  /// 32 lowercase hex characters, hi first — for diagnostics and logs.
  [[nodiscard]] std::string to_hex() const;
};

struct Fingerprint128Hash {
  [[nodiscard]] std::size_t operator()(
      const Fingerprint128& fp) const noexcept {
    return static_cast<std::size_t>(fp.lo ^ (fp.hi * 0x9E3779B97F4A7C15ull));
  }
};

/// FNV-1a-128 over arbitrary bytes (offset basis and prime per the FNV
/// reference parameters; the 128-bit multiply is decomposed into 64-bit
/// halves).
[[nodiscard]] Fingerprint128 fingerprint_bytes(std::string_view bytes);

/// Continues FNV-1a-128 from `state` over more bytes.  The hash is a byte
/// fold whose state is the fingerprint itself, so
/// fingerprint_extend(fingerprint_bytes(a), b) == fingerprint_bytes(a + b):
/// a key that grows by a tag costs the tag's bytes, not a rehash.
[[nodiscard]] Fingerprint128 fingerprint_extend(Fingerprint128 state,
                                                std::string_view bytes);

/// Canonical byte encoding of a solve instance (key v2, see above).
/// Injective by construction: every field of the trace (universes, step
/// counts, local bits, private demands), the machine (task specs, global
/// resources, init costs) and the options enters at a fixed,
/// length-prefixed position.
[[nodiscard]] std::string canonical_instance_key(const MultiTaskTrace& trace,
                                                 const MachineSpec& machine,
                                                 const EvalOptions& options);

/// Canonical byte encoding of an instance's *shape* only: task count and
/// per-task (steps, universe).  Two instances with equal shape fingerprints
/// can exchange schedules — the warm-start index keys on this.
[[nodiscard]] std::string canonical_shape_key(const MultiTaskTrace& trace);

/// Fingerprint + canonical bytes + shape fingerprint of one instance; the
/// unit the SolveCache is keyed on.
struct InstanceKey {
  Fingerprint128 fingerprint;
  Fingerprint128 shape;
  std::string canonical;
};

[[nodiscard]] InstanceKey make_instance_key(const MultiTaskTrace& trace,
                                            const MachineSpec& machine,
                                            const EvalOptions& options);

/// Fingerprints a SolveInstance — the one encoding path the engine/cache
/// stack uses: the instance already carries the validated triple, so the
/// key is derived from exactly the bytes the solvers consumed.
[[nodiscard]] InstanceKey make_instance_key(const SolveInstance& instance);

[[nodiscard]] Fingerprint128 fingerprint_instance(const MultiTaskTrace& trace,
                                                  const MachineSpec& machine,
                                                  const EvalOptions& options);

[[nodiscard]] Fingerprint128 fingerprint_instance(const SolveInstance& instance);

[[nodiscard]] Fingerprint128 fingerprint_shape(const MultiTaskTrace& trace);

}  // namespace hyperrec::cache
