// Runtime-dispatched word-array kernels — the one home for every word loop.
//
// All set algebra in this codebase (hypercontext unions, changeover deltas,
// sparse-table row builds, interval-DP merges) bottoms out in loops over
// arrays of 64-bit words.  Each kernel is written once, as the plain loop in
// namespace `loop` below, and every flavour runs that loop:
//
//   * the inline wrappers run it in place for n <= kInlineWords (most
//     workload families live at universe <= 64, i.e. n == 1, where an
//     indirect call would cost more than the op itself);
//   * the scalar table points at it, compiled for the build's baseline;
//   * the AVX-512 table is the same loop compiled under
//     target("avx512f,avx512vpopcntdq"), which GCC vectorizes 8 words at a
//     time with VPOPCNTQ;
//   * the AVX2 table compiles or_words and subset the same way; its five
//     counting kernels keep hand-written Muła popcounts (pshufb nibble table
//     reduced with psadbw), because AVX2 has no vector popcount for the
//     compiler to emit.
//
// subset's early exit keeps it a scalar loop in every flavour: GCC 12 does
// not vectorize loops that can leave early.
//
// Larger arrays take one indirect call into the dispatched table, selected
// once per process from the CPU's feature bits at first use and overridable
// with the HYPERREC_FORCE_SCALAR environment variable (any non-empty value
// other than "0") for differential testing.  On x86-64 the library is
// built with hardware popcount (-mpopcnt, PUBLIC, so the inline wrappers get
// it in callers' translation units too): every x86-64 CPU since 2008 has
// POPCNT, and without it each one-word count is a libgcc call.
//
// All flavours are bit-identical by contract — tests/support/
// test_bitset_kernels.cpp checks every flavour the host can run against
// scalar, per kernel, across tail-word seams — so forcing scalar can never
// change solver output, only speed.
//
// Aliasing: or_words tolerates dst == a and/or dst == b (each word is
// loaded before it is stored); or_merge_count's dst and src never overlap
// (its loop is __restrict, so the compiler adds no alias check);
// distinct-but-overlapping ranges are not supported.
//
// tools/lint.py (rule `word-kernel`) bans raw __builtin_popcount*/
// std::popcount outside this layer so hot-loop word algebra cannot quietly
// fork from the dispatched kernels again.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

namespace hyperrec::kernels {

using Word = std::uint64_t;

/// Single-word popcount — the kernel layer's spelling for one-off word
/// counts (SHyRA config deltas, decoders) so the lint rule has no
/// exceptions list.
[[nodiscard]] inline std::size_t popcount_word(Word w) noexcept {
  return static_cast<std::size_t>(std::popcount(w));
}

/// The one loop body of each kernel.  `n` is a count of 64-bit words; all
/// pointers must be valid for `n` words (no alignment requirement).
namespace loop {

/// dst[i] = a[i] | b[i]
inline void or_words(Word* dst, const Word* a, const Word* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] | b[i];
}

/// Σ popcount(a[i])
inline std::size_t popcount(const Word* a, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += popcount_word(a[i]);
  return total;
}

/// Σ popcount(a[i] | b[i]) — |A ∪ B| without materialising the union.
inline std::size_t or_popcount(const Word* a, const Word* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += popcount_word(a[i] | b[i]);
  return total;
}

/// Σ popcount(a[i] | b[i] | c[i]) — the fused greedy window score.
inline std::size_t or3_popcount(const Word* a, const Word* b, const Word* c,
                                std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += popcount_word(a[i] | b[i] | c[i]);
  }
  return total;
}

/// Σ popcount(a[i] ^ b[i]) — |A Δ B|, the §4.1 changeover cost.
inline std::size_t xor_popcount(const Word* a, const Word* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += popcount_word(a[i] ^ b[i]);
  return total;
}

/// (a[i] & ~b[i]) == 0 for all i — A ⊆ B.
inline bool subset(const Word* a, const Word* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

/// dst[i] |= src[i]; returns Σ popcount(src[i] & ~old dst[i]) — the
/// "newly added bits" count interval DPs maintain incrementally.  dst and
/// src must not overlap.
inline std::size_t or_merge_count(Word* __restrict dst,
                                  const Word* __restrict src, std::size_t n) {
  std::size_t added = 0;
  for (std::size_t i = 0; i < n; ++i) {
    added += popcount_word(src[i] & ~dst[i]);
    dst[i] |= src[i];
  }
  return added;
}

}  // namespace loop

/// One ISA flavour's kernels; each entry computes what its namesake in
/// namespace `loop` does.
struct KernelTable {
  const char* name;  ///< "scalar", "avx2", "avx512"

  void (*or_words)(Word* dst, const Word* a, const Word* b, std::size_t n);
  std::size_t (*popcount)(const Word* a, std::size_t n);
  std::size_t (*or_popcount)(const Word* a, const Word* b, std::size_t n);
  std::size_t (*or3_popcount)(const Word* a, const Word* b, const Word* c,
                              std::size_t n);
  std::size_t (*xor_popcount)(const Word* a, const Word* b, std::size_t n);
  bool (*subset)(const Word* a, const Word* b, std::size_t n);
  std::size_t (*or_merge_count)(Word* dst, const Word* src, std::size_t n);
};

/// The portable scalar flavour — always available, the differential oracle.
[[nodiscard]] const KernelTable& scalar_table() noexcept;

/// Every flavour compiled in that this CPU can run, scalar first and the
/// best last.  Ignores HYPERREC_FORCE_SCALAR — differential tests use it to
/// pit each flavour against scalar inside one process.
[[nodiscard]] std::span<const KernelTable* const> host_tables() noexcept;

/// The dispatched flavour: scalar when HYPERREC_FORCE_SCALAR is set (to a
/// non-empty value other than "0") at first use, else the best flavour of
/// host_tables().  Selected once; stable for the process lifetime.
[[nodiscard]] const KernelTable& active_table() noexcept;

/// Name of the dispatched flavour ("scalar"/"avx2"/"avx512") for /statz,
/// bench labels and logs.
[[nodiscard]] const char* active_isa() noexcept;

/// True when the HYPERREC_FORCE_SCALAR override pinned dispatch to scalar.
[[nodiscard]] bool force_scalar_requested() noexcept;

// --- inline wrappers: the only calling convention consumers use -----------

/// Word counts at or below this run the loop body in place; larger arrays
/// take one indirect call into the dispatched table.  2 words = universe
/// 128, past which SIMD starts to pay for the call.
inline constexpr std::size_t kInlineWords = 2;

inline void or_words(Word* dst, const Word* a, const Word* b, std::size_t n) {
  if (n <= kInlineWords) return loop::or_words(dst, a, b, n);
  active_table().or_words(dst, a, b, n);
}

[[nodiscard]] inline std::size_t popcount(const Word* a, std::size_t n) {
  if (n <= kInlineWords) return loop::popcount(a, n);
  return active_table().popcount(a, n);
}

[[nodiscard]] inline std::size_t or_popcount(const Word* a, const Word* b,
                                             std::size_t n) {
  if (n <= kInlineWords) return loop::or_popcount(a, b, n);
  return active_table().or_popcount(a, b, n);
}

[[nodiscard]] inline std::size_t or3_popcount(const Word* a, const Word* b,
                                              const Word* c, std::size_t n) {
  if (n <= kInlineWords) return loop::or3_popcount(a, b, c, n);
  return active_table().or3_popcount(a, b, c, n);
}

[[nodiscard]] inline std::size_t xor_popcount(const Word* a, const Word* b,
                                              std::size_t n) {
  if (n <= kInlineWords) return loop::xor_popcount(a, b, n);
  return active_table().xor_popcount(a, b, n);
}

[[nodiscard]] inline bool subset(const Word* a, const Word* b, std::size_t n) {
  if (n <= kInlineWords) return loop::subset(a, b, n);
  return active_table().subset(a, b, n);
}

inline std::size_t or_merge_count(Word* dst, const Word* src, std::size_t n) {
  if (n <= kInlineWords) return loop::or_merge_count(dst, src, n);
  return active_table().or_merge_count(dst, src, n);
}

}  // namespace hyperrec::kernels
