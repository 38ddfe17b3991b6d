#include "support/bitset_kernels.hpp"

#include <cstdlib>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define HYPERREC_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace hyperrec::kernels {

namespace {

constexpr KernelTable kScalarTable = {
    "scalar",           loop::or_words,     loop::popcount,
    loop::or_popcount,  loop::or3_popcount, loop::xor_popcount,
    loop::subset,       loop::or_merge_count,
};

#if defined(HYPERREC_KERNELS_X86)

// Compiled<Body>::call is the loop body `Body` compiled for one ISA: the
// target attribute lets GCC inline the baseline body and vectorize it for
// that ISA.  The translation unit itself stays at the portable baseline;
// these bodies are only ever reached behind the cpuid dispatch.
#define HYPERREC_COMPILED_FOR(Compiled, isa)                      \
  template <auto Body>                                            \
  struct Compiled;                                                \
  template <typename R, typename... Args, R (*Body)(Args...)>     \
  struct Compiled<Body> {                                         \
    __attribute__((target(isa))) static R call(Args... args) {    \
      return Body(args...);                                       \
    }                                                             \
  };

// AVX-512 names exactly the features the dispatch checks.  avx512bw stays
// out: with it GCC moves the scalar tail words through 64-bit mask
// registers.
HYPERREC_COMPILED_FOR(Avx512, "avx512f,avx512vpopcntdq")
HYPERREC_COMPILED_FOR(Avx2, "avx2")
#undef HYPERREC_COMPILED_FOR

constexpr KernelTable kAvx512Table = {
    "avx512",
    Avx512<loop::or_words>::call,
    Avx512<loop::popcount>::call,
    Avx512<loop::or_popcount>::call,
    Avx512<loop::or3_popcount>::call,
    Avx512<loop::xor_popcount>::call,
    Avx512<loop::subset>::call,
    Avx512<loop::or_merge_count>::call,
};

// --- AVX2 counting kernels --------------------------------------------------
// 4 words per vector, popcounted with the Muła pshufb nibble lookup reduced
// with psadbw; the tail words run the loop body.

#define HYPERREC_AVX2 __attribute__((target("avx2")))

HYPERREC_AVX2 inline __m256i popcount256(__m256i v) {
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

HYPERREC_AVX2 inline std::size_t reduce256(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::size_t>(_mm_cvtsi128_si64(sum)) +
         static_cast<std::size_t>(_mm_extract_epi64(sum, 1));
}

HYPERREC_AVX2 inline __m256i load256(const Word* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

HYPERREC_AVX2 std::size_t avx2_popcount(const Word* a, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(acc, popcount256(load256(a + i)));
  }
  return reduce256(acc) + loop::popcount(a + i, n - i);
}

HYPERREC_AVX2 std::size_t avx2_or_popcount(const Word* a, const Word* b,
                                           std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, popcount256(_mm256_or_si256(load256(a + i), load256(b + i))));
  }
  return reduce256(acc) + loop::or_popcount(a + i, b + i, n - i);
}

HYPERREC_AVX2 std::size_t avx2_or3_popcount(const Word* a, const Word* b,
                                            const Word* c, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_or_si256(
        _mm256_or_si256(load256(a + i), load256(b + i)), load256(c + i));
    acc = _mm256_add_epi64(acc, popcount256(v));
  }
  return reduce256(acc) + loop::or3_popcount(a + i, b + i, c + i, n - i);
}

HYPERREC_AVX2 std::size_t avx2_xor_popcount(const Word* a, const Word* b,
                                            std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, popcount256(_mm256_xor_si256(load256(a + i), load256(b + i))));
  }
  return reduce256(acc) + loop::xor_popcount(a + i, b + i, n - i);
}

HYPERREC_AVX2 std::size_t avx2_or_merge_count(Word* dst, const Word* src,
                                              std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vd = load256(dst + i);
    const __m256i vs = load256(src + i);
    acc = _mm256_add_epi64(acc, popcount256(_mm256_andnot_si256(vd, vs)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(vd, vs));
  }
  return reduce256(acc) + loop::or_merge_count(dst + i, src + i, n - i);
}

#undef HYPERREC_AVX2

constexpr KernelTable kAvx2Table = {
    "avx2",
    Avx2<loop::or_words>::call,
    avx2_popcount,
    avx2_or_popcount,
    avx2_or3_popcount,
    avx2_xor_popcount,
    Avx2<loop::subset>::call,
    avx2_or_merge_count,
};

#endif  // HYPERREC_KERNELS_X86

// --- dispatch -------------------------------------------------------------

bool env_force_scalar() {
  const char* value = std::getenv("HYPERREC_FORCE_SCALAR");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

struct Dispatch {
  const KernelTable* tables[3];  ///< host_tables(), scalar first
  std::size_t count;
  const KernelTable* active;
  bool forced;
};

const Dispatch& dispatch() {
  // Selected exactly once, on first kernel use past the inline threshold
  // (thread-safe static init); env/cpuid never change mid-process.
  static const Dispatch selected = [] {
    Dispatch d{{&kScalarTable, nullptr, nullptr}, 1, nullptr,
               env_force_scalar()};
#if defined(HYPERREC_KERNELS_X86)
    if (__builtin_cpu_supports("avx2")) d.tables[d.count++] = &kAvx2Table;
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vpopcntdq")) {
      d.tables[d.count++] = &kAvx512Table;
    }
#endif
    d.active = d.forced ? &kScalarTable : d.tables[d.count - 1];
    return d;
  }();
  return selected;
}

}  // namespace

const KernelTable& scalar_table() noexcept { return kScalarTable; }

std::span<const KernelTable* const> host_tables() noexcept {
  return {dispatch().tables, dispatch().count};
}

const KernelTable& active_table() noexcept { return *dispatch().active; }

const char* active_isa() noexcept { return dispatch().active->name; }

bool force_scalar_requested() noexcept { return dispatch().forced; }

}  // namespace hyperrec::kernels
