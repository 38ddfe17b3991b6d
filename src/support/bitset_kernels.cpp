#include "support/bitset_kernels.hpp"

#include <cstdlib>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define HYPERREC_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace hyperrec::kernels {

namespace {

// --- portable scalar flavour ----------------------------------------------
// The oracle every SIMD flavour must match bit-for-bit.  Plain loops: the
// compiler may autovectorise them against the build's baseline ISA, which
// is fine — semantics, not schedule, are the contract.

void scalar_or(Word* dst, const Word* a, const Word* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] | b[i];
}

void scalar_and(Word* dst, const Word* a, const Word* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & b[i];
}

void scalar_andnot(Word* dst, const Word* a, const Word* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & ~b[i];
}

void scalar_xor(Word* dst, const Word* a, const Word* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] ^ b[i];
}

std::size_t scalar_popcount(const Word* a, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += popcount_word(a[i]);
  return total;
}

std::size_t scalar_or_popcount(const Word* a, const Word* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += popcount_word(a[i] | b[i]);
  return total;
}

std::size_t scalar_or3_popcount(const Word* a, const Word* b, const Word* c,
                                std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += popcount_word(a[i] | b[i] | c[i]);
  }
  return total;
}

std::size_t scalar_xor_popcount(const Word* a, const Word* b, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += popcount_word(a[i] ^ b[i]);
  return total;
}

std::size_t scalar_andnot_popcount(const Word* a, const Word* b,
                                   std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += popcount_word(a[i] & ~b[i]);
  return total;
}

bool scalar_subset(const Word* a, const Word* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

bool scalar_intersects(const Word* a, const Word* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

std::size_t scalar_or_merge_count(Word* dst, const Word* src, std::size_t n) {
  std::size_t added = 0;
  for (std::size_t i = 0; i < n; ++i) {
    added += popcount_word(src[i] & ~dst[i]);
    dst[i] |= src[i];
  }
  return added;
}

constexpr KernelTable kScalarTable = {
    "scalar",          scalar_or,           scalar_and,
    scalar_andnot,     scalar_xor,          scalar_popcount,
    scalar_or_popcount, scalar_or3_popcount, scalar_xor_popcount,
    scalar_andnot_popcount, scalar_subset,  scalar_intersects,
    scalar_or_merge_count,
};

#if defined(HYPERREC_KERNELS_X86)

// --- AVX2 flavour ---------------------------------------------------------
// 4 words per vector; popcounts via the Muła pshufb nibble-LUT reduced with
// psadbw.  Every function carries the target attribute so the TU itself can
// be compiled for the portable baseline and still emit AVX2 bodies that are
// only ever reached behind the cpuid dispatch.

__attribute__((target("avx2"))) inline __m256i popcount256(__m256i v) {
  const __m256i lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  // Horizontal byte sums into the 4 qword lanes.
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) inline std::size_t reduce256(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::size_t>(_mm_cvtsi128_si64(sum)) +
         static_cast<std::size_t>(_mm_extract_epi64(sum, 1));
}

__attribute__((target("avx2"))) inline __m256i load256(const Word* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) void avx2_or(Word* dst, const Word* a,
                                             const Word* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(load256(a + i), load256(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

__attribute__((target("avx2"))) void avx2_and(Word* dst, const Word* a,
                                              const Word* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(load256(a + i), load256(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

__attribute__((target("avx2"))) void avx2_andnot(Word* dst, const Word* a,
                                                 const Word* b,
                                                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // _mm256_andnot_si256(x, y) computes ~x & y, so pass b first.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(load256(b + i), load256(a + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] & ~b[i];
}

__attribute__((target("avx2"))) void avx2_xor(Word* dst, const Word* a,
                                              const Word* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(load256(a + i), load256(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] ^ b[i];
}

__attribute__((target("avx2"))) std::size_t avx2_popcount(const Word* a,
                                                          std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(acc, popcount256(load256(a + i)));
  }
  std::size_t total = reduce256(acc);
  for (; i < n; ++i) total += popcount_word(a[i]);
  return total;
}

__attribute__((target("avx2"))) std::size_t avx2_or_popcount(const Word* a,
                                                             const Word* b,
                                                             std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, popcount256(_mm256_or_si256(load256(a + i), load256(b + i))));
  }
  std::size_t total = reduce256(acc);
  for (; i < n; ++i) total += popcount_word(a[i] | b[i]);
  return total;
}

__attribute__((target("avx2"))) std::size_t avx2_or3_popcount(const Word* a,
                                                              const Word* b,
                                                              const Word* c,
                                                              std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_or_si256(
        _mm256_or_si256(load256(a + i), load256(b + i)), load256(c + i));
    acc = _mm256_add_epi64(acc, popcount256(v));
  }
  std::size_t total = reduce256(acc);
  for (; i < n; ++i) total += popcount_word(a[i] | b[i] | c[i]);
  return total;
}

__attribute__((target("avx2"))) std::size_t avx2_xor_popcount(const Word* a,
                                                              const Word* b,
                                                              std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, popcount256(_mm256_xor_si256(load256(a + i), load256(b + i))));
  }
  std::size_t total = reduce256(acc);
  for (; i < n; ++i) total += popcount_word(a[i] ^ b[i]);
  return total;
}

__attribute__((target("avx2"))) std::size_t avx2_andnot_popcount(
    const Word* a, const Word* b, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, popcount256(_mm256_andnot_si256(load256(b + i), load256(a + i))));
  }
  std::size_t total = reduce256(acc);
  for (; i < n; ++i) total += popcount_word(a[i] & ~b[i]);
  return total;
}

__attribute__((target("avx2"))) bool avx2_subset(const Word* a, const Word* b,
                                                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i diff = _mm256_andnot_si256(load256(b + i), load256(a + i));
    if (!_mm256_testz_si256(diff, diff)) return false;
  }
  for (; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

__attribute__((target("avx2"))) bool avx2_intersects(const Word* a,
                                                     const Word* b,
                                                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (!_mm256_testz_si256(load256(a + i), load256(b + i))) return true;
  }
  for (; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

__attribute__((target("avx2"))) std::size_t avx2_or_merge_count(
    Word* dst, const Word* src, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vd = load256(dst + i);
    const __m256i vs = load256(src + i);
    acc = _mm256_add_epi64(acc, popcount256(_mm256_andnot_si256(vd, vs)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(vd, vs));
  }
  std::size_t added = reduce256(acc);
  for (; i < n; ++i) {
    added += popcount_word(src[i] & ~dst[i]);
    dst[i] |= src[i];
  }
  return added;
}

constexpr KernelTable kAvx2Table = {
    "avx2",           avx2_or,           avx2_and,
    avx2_andnot,      avx2_xor,          avx2_popcount,
    avx2_or_popcount, avx2_or3_popcount, avx2_xor_popcount,
    avx2_andnot_popcount, avx2_subset,   avx2_intersects,
    avx2_or_merge_count,
};

// --- AVX-512 flavour ------------------------------------------------------
// 8 words per vector with the native VPOPCNTQ instruction; the per-vector
// shuffle dance disappears entirely.  Gated at dispatch on F+BW+VPOPCNTDQ.

#define HYPERREC_AVX512_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vpopcntdq")))

// The unmasked andnot, the extract inside _mm512_reduce_add_epi64 and the
// 512→256 cast pass an _mm*_undefined_*() merge source, which GCC 12
// reports as a (false) -Wmaybe-uninitialized / -Wuninitialized; the
// zero-masking forms compute the same values without one.

HYPERREC_AVX512_TARGET inline __m512i andnot512(__m512i a, __m512i b) {
  return _mm512_maskz_andnot_epi64(0xFF, a, b);  // ~a & b
}

HYPERREC_AVX512_TARGET inline std::size_t reduce512(__m512i acc) {
  return reduce256(
      _mm256_add_epi64(_mm512_maskz_extracti64x4_epi64(0xF, acc, 0),
                       _mm512_maskz_extracti64x4_epi64(0xF, acc, 1)));
}

HYPERREC_AVX512_TARGET void avx512_or(Word* dst, const Word* a, const Word* b,
                                      std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i, _mm512_or_si512(_mm512_loadu_si512(a + i),
                                                 _mm512_loadu_si512(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

HYPERREC_AVX512_TARGET void avx512_and(Word* dst, const Word* a, const Word* b,
                                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i, _mm512_and_si512(_mm512_loadu_si512(a + i),
                                                  _mm512_loadu_si512(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

HYPERREC_AVX512_TARGET void avx512_andnot(Word* dst, const Word* a,
                                          const Word* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i, andnot512(_mm512_loadu_si512(b + i),
                                           _mm512_loadu_si512(a + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] & ~b[i];
}

HYPERREC_AVX512_TARGET void avx512_xor(Word* dst, const Word* a, const Word* b,
                                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(_mm512_loadu_si512(a + i),
                                                  _mm512_loadu_si512(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] ^ b[i];
}

HYPERREC_AVX512_TARGET std::size_t avx512_popcount(const Word* a,
                                                   std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc,
                           _mm512_popcnt_epi64(_mm512_loadu_si512(a + i)));
  }
  std::size_t total = reduce512(acc);
  for (; i < n; ++i) total += popcount_word(a[i]);
  return total;
}

HYPERREC_AVX512_TARGET std::size_t avx512_or_popcount(const Word* a,
                                                      const Word* b,
                                                      std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v =
        _mm512_or_si512(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  std::size_t total = reduce512(acc);
  for (; i < n; ++i) total += popcount_word(a[i] | b[i]);
  return total;
}

HYPERREC_AVX512_TARGET std::size_t avx512_or3_popcount(const Word* a,
                                                       const Word* b,
                                                       const Word* c,
                                                       std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_or_si512(
        _mm512_or_si512(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i)),
        _mm512_loadu_si512(c + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  std::size_t total = reduce512(acc);
  for (; i < n; ++i) total += popcount_word(a[i] | b[i] | c[i]);
  return total;
}

HYPERREC_AVX512_TARGET std::size_t avx512_xor_popcount(const Word* a,
                                                       const Word* b,
                                                       std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v =
        _mm512_xor_si512(_mm512_loadu_si512(a + i), _mm512_loadu_si512(b + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  std::size_t total = reduce512(acc);
  for (; i < n; ++i) total += popcount_word(a[i] ^ b[i]);
  return total;
}

HYPERREC_AVX512_TARGET std::size_t avx512_andnot_popcount(const Word* a,
                                                          const Word* b,
                                                          std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v =
        andnot512(_mm512_loadu_si512(b + i), _mm512_loadu_si512(a + i));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  std::size_t total = reduce512(acc);
  for (; i < n; ++i) total += popcount_word(a[i] & ~b[i]);
  return total;
}

HYPERREC_AVX512_TARGET bool avx512_subset(const Word* a, const Word* b,
                                          std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i diff =
        andnot512(_mm512_loadu_si512(b + i), _mm512_loadu_si512(a + i));
    if (_mm512_test_epi64_mask(diff, diff) != 0) return false;
  }
  for (; i < n; ++i) {
    if ((a[i] & ~b[i]) != 0) return false;
  }
  return true;
}

HYPERREC_AVX512_TARGET bool avx512_intersects(const Word* a, const Word* b,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    if (_mm512_test_epi64_mask(_mm512_loadu_si512(a + i),
                               _mm512_loadu_si512(b + i)) != 0) {
      return true;
    }
  }
  for (; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

HYPERREC_AVX512_TARGET std::size_t avx512_or_merge_count(Word* dst,
                                                         const Word* src,
                                                         std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i vd = _mm512_loadu_si512(dst + i);
    const __m512i vs = _mm512_loadu_si512(src + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(andnot512(vd, vs)));
    _mm512_storeu_si512(dst + i, _mm512_or_si512(vd, vs));
  }
  std::size_t added = reduce512(acc);
  for (; i < n; ++i) {
    added += popcount_word(src[i] & ~dst[i]);
    dst[i] |= src[i];
  }
  return added;
}

#undef HYPERREC_AVX512_TARGET

constexpr KernelTable kAvx512Table = {
    "avx512",           avx512_or,           avx512_and,
    avx512_andnot,      avx512_xor,          avx512_popcount,
    avx512_or_popcount, avx512_or3_popcount, avx512_xor_popcount,
    avx512_andnot_popcount, avx512_subset,   avx512_intersects,
    avx512_or_merge_count,
};

#endif  // HYPERREC_KERNELS_X86

// --- dispatch -------------------------------------------------------------

bool env_force_scalar() {
  const char* value = std::getenv("HYPERREC_FORCE_SCALAR");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

const KernelTable* detect_simd() {
#if defined(HYPERREC_KERNELS_X86)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    return &kAvx512Table;
  }
  if (__builtin_cpu_supports("avx2")) return &kAvx2Table;
#endif
  return nullptr;
}

struct Dispatch {
  const KernelTable* simd;
  const KernelTable* active;
  bool forced;
};

const Dispatch& dispatch() {
  // Selected exactly once, on first kernel use past the inline threshold
  // (thread-safe static init); env/cpuid never change mid-process.
  static const Dispatch selected = [] {
    Dispatch d{detect_simd(), nullptr, env_force_scalar()};
    d.active = (d.forced || d.simd == nullptr) ? &kScalarTable : d.simd;
    return d;
  }();
  return selected;
}

}  // namespace

const KernelTable& scalar_table() noexcept { return kScalarTable; }

const KernelTable* simd_table() noexcept { return dispatch().simd; }

const KernelTable& active_table() noexcept { return *dispatch().active; }

const char* active_isa() noexcept { return dispatch().active->name; }

bool force_scalar_requested() noexcept { return dispatch().forced; }

}  // namespace hyperrec::kernels
