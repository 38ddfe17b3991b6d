#include "cache/fingerprint.hpp"

#include <cstdio>

namespace hyperrec::cache {

namespace {

// FNV-1a-128 reference parameters: offset basis
// 0x6c62272e07bb014262b821756295c58d, prime 2^88 + 2^8 + 0x3b.
constexpr std::uint64_t kOffsetHi = 0x6c62272e07bb0142ull;
constexpr std::uint64_t kOffsetLo = 0x62b821756295c58dull;
constexpr std::uint64_t kPrimeLow = 0x13bull;   // low 64 bits of the prime
constexpr unsigned kPrimeShift = 88;            // the 2^88 term

void fnv1a_absorb(std::uint64_t& hi, std::uint64_t& lo, std::uint8_t byte) {
  lo ^= byte;
  // (hi, lo) * (2^88 + 0x13b) mod 2^128:
  //   = ((hi * 0x13b + carry(lo * 0x13b)) << 64 | low(lo * 0x13b))
  //     + (lo << 88 into the high word).
  // The 64×64→128 product lo * 0x13b is decomposed into 32-bit halves to
  // stay within ISO types (-Wpedantic rejects __int128).
  const std::uint64_t prod_low = (lo & 0xffffffffull) * kPrimeLow;
  const std::uint64_t prod_high = (lo >> 32) * kPrimeLow;
  const std::uint64_t new_lo = prod_low + (prod_high << 32);
  const std::uint64_t carry =
      (prod_high >> 32) + (new_lo < prod_low ? 1u : 0u);
  hi = hi * kPrimeLow + carry + (lo << (kPrimeShift - 64));
  lo = new_lo;
}

void put_u8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>(value & 0xffu));
    value >>= 8;
  }
}

void put_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>(value & 0xffu));
    value >>= 8;
  }
}

/// The first ⌈size/8⌉ little-endian bytes of a bitset's words — the bits
/// past size() are zero, so the dropped tail carries no information.
void put_bits(std::string& out, const DynamicBitset& bits) {
  std::size_t bytes = (bits.size() + 7) / 8;
  for (DynamicBitset::Word word : bits.words()) {
    for (int i = 0; i < 8 && bytes > 0; ++i, --bytes) {
      out.push_back(static_cast<char>(word & 0xffu));
      word >>= 8;
    }
  }
}

void append_trace(std::string& out, const MultiTaskTrace& trace) {
  put_u8(out, 'T');
  put_u64(out, trace.task_count());
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    const TaskTrace& task = trace.task(j);
    put_u64(out, task.local_universe());
    put_u64(out, task.size());
    // Per-step private demands only when the task has any: one flag byte
    // instead of a u32 per step on the common all-zero task.
    bool has_demand = false;
    for (std::size_t s = 0; s < task.size() && !has_demand; ++s) {
      has_demand = task.at(s).private_demand != 0;
    }
    put_u8(out, has_demand ? 1 : 0);
    for (std::size_t s = 0; s < task.size(); ++s) {
      const ContextRequirement& req = task.at(s);
      if (has_demand) put_u32(out, req.private_demand);
      put_bits(out, req.local);
    }
  }
}

void append_machine(std::string& out, const MachineSpec& machine) {
  put_u8(out, 'M');
  put_u64(out, machine.task_count());
  for (const TaskSpec& task : machine.tasks) {
    put_u64(out, task.local_switches);
    put_u64(out, static_cast<std::uint64_t>(task.local_init));
  }
  put_u64(out, machine.private_global_units);
  put_u64(out, machine.public_context_size);
  put_u64(out, static_cast<std::uint64_t>(machine.global_init));
}

void append_options(std::string& out, const EvalOptions& options) {
  put_u8(out, 'O');
  put_u8(out, static_cast<std::uint8_t>(options.hyper_upload));
  put_u8(out, static_cast<std::uint8_t>(options.reconfig_upload));
  put_u8(out, options.changeover ? 1 : 0);
}

}  // namespace

std::string Fingerprint128::to_hex() const {
  char buffer[33];
  std::snprintf(buffer, sizeof(buffer), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buffer, 32);
}

Fingerprint128 fingerprint_bytes(std::string_view bytes) {
  return fingerprint_extend({kOffsetHi, kOffsetLo}, bytes);
}

Fingerprint128 fingerprint_extend(Fingerprint128 state,
                                  std::string_view bytes) {
  for (const char c : bytes) {
    fnv1a_absorb(state.hi, state.lo, static_cast<std::uint8_t>(c));
  }
  return state;
}

std::string canonical_instance_key(const MultiTaskTrace& trace,
                                   const MachineSpec& machine,
                                   const EvalOptions& options) {
  std::string out = "hyperrec-instance-v2";
  out.push_back('\0');
  append_trace(out, trace);
  append_machine(out, machine);
  append_options(out, options);
  return out;
}

std::string canonical_shape_key(const MultiTaskTrace& trace) {
  std::string out = "hyperrec-shape-v1";
  out.push_back('\0');
  put_u64(out, trace.task_count());
  for (std::size_t j = 0; j < trace.task_count(); ++j) {
    put_u64(out, trace.task(j).size());
    put_u64(out, trace.task(j).local_universe());
  }
  return out;
}

InstanceKey make_instance_key(const MultiTaskTrace& trace,
                              const MachineSpec& machine,
                              const EvalOptions& options) {
  InstanceKey key;
  key.canonical = canonical_instance_key(trace, machine, options);
  key.fingerprint = fingerprint_bytes(key.canonical);
  key.shape = fingerprint_shape(trace);
  return key;
}

InstanceKey make_instance_key(const SolveInstance& instance) {
  return make_instance_key(instance.trace(), instance.machine(),
                           instance.options());
}

Fingerprint128 fingerprint_instance(const MultiTaskTrace& trace,
                                    const MachineSpec& machine,
                                    const EvalOptions& options) {
  return fingerprint_bytes(canonical_instance_key(trace, machine, options));
}

Fingerprint128 fingerprint_instance(const SolveInstance& instance) {
  return fingerprint_instance(instance.trace(), instance.machine(),
                              instance.options());
}

Fingerprint128 fingerprint_shape(const MultiTaskTrace& trace) {
  return fingerprint_bytes(canonical_shape_key(trace));
}

}  // namespace hyperrec::cache
