// Differential tests for the runtime-dispatched kernel layer.
//
// The contract of support/bitset_kernels.hpp is that every flavour —
// scalar, AVX2, AVX-512 — is bit-identical, so dispatch can never change
// solver output.  These tests prove it kernel-by-kernel for every flavour
// this host can run (not only the dispatched one), on seeded random words
// across universes that straddle every word seam and SIMD stride (0..16
// words, covering tails of every length after the 4-word AVX2 and 8-word
// AVX-512 strides), check the inline wrappers against the tables, and pin
// down the DynamicBitset small-buffer optimisation: universes <= 64 must
// perform no heap allocation (counted via an overridden global operator
// new), and copies, moves and spans must stay correct across the
// inline/heap boundary.
#include "support/bitset_kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "support/bitset.hpp"
#include "support/rng.hpp"

// --- global allocation counter for the SBO tests ---------------------------

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// The replaced operator new above allocates with malloc, so freeing with
// std::free is correct; GCC's -Wmismatched-new-delete can't see that.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace hyperrec {
namespace {

using kernels::KernelTable;
using kernels::Word;

// Universes straddling word seams (word counts 0,1,1,1,2,2,2,16), then one
// universe ending mid-word (64·w − 7) for each word count w = 3..15, so
// every tail after the 4-word AVX2 and 8-word AVX-512 strides runs.
constexpr std::size_t kUniverses[] = {0,   1,   63,  64,  65,  127, 128,
                                      1000, 185, 249, 313, 377, 441, 505,
                                      569, 633, 697, 761, 825, 889, 953};

std::size_t words_for(std::size_t universe) {
  return (universe + 63) / 64;
}

Word tail_mask(std::size_t universe) {
  const std::size_t rem = universe % 64;
  return rem == 0 ? ~Word{0} : (Word{1} << rem) - 1;
}

std::vector<Word> random_words(std::size_t universe, Xoshiro256& rng) {
  std::vector<Word> words(words_for(universe));
  for (Word& w : words) w = rng();
  if (!words.empty()) words.back() &= tail_mask(universe);
  return words;
}

class KernelDifferentialTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::size_t universe() const { return GetParam(); }
  std::size_t n() const { return words_for(universe()); }
};

INSTANTIATE_TEST_SUITE_P(Seams, KernelDifferentialTest,
                         ::testing::ValuesIn(kUniverses));

// or_words, every flavour vs scalar, including dst == a aliasing.
TEST_P(KernelDifferentialTest, CombiningKernelsBitIdentical) {
  const KernelTable& scalar = kernels::scalar_table();
  Xoshiro256 rng(17 + universe());
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<Word> a = random_words(universe(), rng);
    const std::vector<Word> b = random_words(universe(), rng);
    std::vector<Word> expect(n(), 0);
    scalar.or_words(expect.data(), a.data(), b.data(), n());
    for (const KernelTable* flavour : kernels::host_tables()) {
      SCOPED_TRACE(flavour->name);
      std::vector<Word> got(n(), 0);
      flavour->or_words(got.data(), a.data(), b.data(), n());
      EXPECT_EQ(expect, got);

      // dst == a aliasing, the in-place form operator|= uses.
      std::vector<Word> aliased = a;
      flavour->or_words(aliased.data(), aliased.data(), b.data(), n());
      EXPECT_EQ(expect, aliased);
    }
  }
}

TEST_P(KernelDifferentialTest, CountingKernelsBitIdentical) {
  const KernelTable& scalar = kernels::scalar_table();
  using Count2 = std::size_t (*KernelTable::*)(const Word*, const Word*,
                                               std::size_t);
  const Count2 ops[] = {&KernelTable::or_popcount, &KernelTable::xor_popcount};
  Xoshiro256 rng(29 + universe());
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<Word> a = random_words(universe(), rng);
    const std::vector<Word> b = random_words(universe(), rng);
    const std::vector<Word> c = random_words(universe(), rng);
    for (const KernelTable* flavour : kernels::host_tables()) {
      SCOPED_TRACE(flavour->name);
      EXPECT_EQ(scalar.popcount(a.data(), n()),
                flavour->popcount(a.data(), n()));
      for (const Count2 op : ops) {
        EXPECT_EQ((scalar.*op)(a.data(), b.data(), n()),
                  (flavour->*op)(a.data(), b.data(), n()));
      }
      EXPECT_EQ(scalar.or3_popcount(a.data(), b.data(), c.data(), n()),
                flavour->or3_popcount(a.data(), b.data(), c.data(), n()));
    }
  }
}

TEST_P(KernelDifferentialTest, PredicateKernelsBitIdentical) {
  const KernelTable& scalar = kernels::scalar_table();
  Xoshiro256 rng(43 + universe());
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Word> a = random_words(universe(), rng);
    std::vector<Word> b = random_words(universe(), rng);
    // Random words are almost never a subset, so force one on half the
    // trials, and on a quarter break it in the last word only.
    if (trial % 2 == 1) {
      for (std::size_t i = 0; i < a.size(); ++i) a[i] &= b[i];  // a ⊆ b
      if (trial % 4 == 3 && !a.empty() && b.back() != 0) {
        a.back() = b.back();
        b.back() &= b.back() - 1;  // one stray bit in the last word
      }
    }
    for (const KernelTable* flavour : kernels::host_tables()) {
      SCOPED_TRACE(flavour->name);
      EXPECT_EQ(scalar.subset(a.data(), b.data(), n()),
                flavour->subset(a.data(), b.data(), n()));
    }
  }
}

TEST_P(KernelDifferentialTest, MergeCountBitIdentical) {
  const KernelTable& scalar = kernels::scalar_table();
  Xoshiro256 rng(61 + universe());
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<Word> src = random_words(universe(), rng);
    const std::vector<Word> base = random_words(universe(), rng);
    std::vector<Word> scalar_dst = base;
    const std::size_t scalar_added =
        scalar.or_merge_count(scalar_dst.data(), src.data(), n());
    for (const KernelTable* flavour : kernels::host_tables()) {
      SCOPED_TRACE(flavour->name);
      std::vector<Word> dst = base;
      EXPECT_EQ(scalar_added,
                flavour->or_merge_count(dst.data(), src.data(), n()));
      EXPECT_EQ(scalar_dst, dst);
    }
  }
}

// The inline wrappers must agree with the scalar table (for n <= kInlineWords
// they run the same loop in place; beyond that they dispatch, and dispatch is
// bit-identical by the tests above).
TEST_P(KernelDifferentialTest, WrappersMatchScalarTable) {
  const KernelTable& scalar = kernels::scalar_table();
  Xoshiro256 rng(83 + universe());
  const std::vector<Word> a = random_words(universe(), rng);
  const std::vector<Word> b = random_words(universe(), rng);
  const std::vector<Word> c = random_words(universe(), rng);

  std::vector<Word> expect(n(), 0);
  std::vector<Word> got(n(), 0);
  scalar.or_words(expect.data(), a.data(), b.data(), n());
  kernels::or_words(got.data(), a.data(), b.data(), n());
  EXPECT_EQ(expect, got);

  EXPECT_EQ(scalar.popcount(a.data(), n()), kernels::popcount(a.data(), n()));
  EXPECT_EQ(scalar.or_popcount(a.data(), b.data(), n()),
            kernels::or_popcount(a.data(), b.data(), n()));
  EXPECT_EQ(scalar.or3_popcount(a.data(), b.data(), c.data(), n()),
            kernels::or3_popcount(a.data(), b.data(), c.data(), n()));
  EXPECT_EQ(scalar.xor_popcount(a.data(), b.data(), n()),
            kernels::xor_popcount(a.data(), b.data(), n()));
  EXPECT_EQ(scalar.subset(a.data(), b.data(), n()),
            kernels::subset(a.data(), b.data(), n()));

  std::vector<Word> scalar_dst = a;
  std::vector<Word> wrapper_dst = a;
  EXPECT_EQ(scalar.or_merge_count(scalar_dst.data(), b.data(), n()),
            kernels::or_merge_count(wrapper_dst.data(), b.data(), n()));
  EXPECT_EQ(scalar_dst, wrapper_dst);
}

// --- dispatch plumbing -----------------------------------------------------

TEST(KernelDispatch, TablesAreSelfConsistent) {
  const KernelTable& active = kernels::active_table();
  EXPECT_STREQ(active.name, kernels::active_isa());
  EXPECT_STREQ(kernels::scalar_table().name, "scalar");
  const std::span<const KernelTable* const> tables = kernels::host_tables();
  ASSERT_FALSE(tables.empty());
  EXPECT_EQ(tables.front(), &kernels::scalar_table());
  if (kernels::force_scalar_requested()) {
    EXPECT_STREQ(kernels::active_isa(), "scalar");
  } else {
    EXPECT_EQ(&active, tables.back());
  }
}

TEST(KernelDispatch, ForceScalarMatchesEnvironment) {
  // Dispatch latches the environment at first use, and this process has
  // already used it — so the getter must agree with what getenv says now
  // (ctest runs this suite both ways via the `scalar` re-registrations).
  const char* env = std::getenv("HYPERREC_FORCE_SCALAR");
  const bool expect_forced =
      env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  EXPECT_EQ(kernels::force_scalar_requested(), expect_forced);
}

// --- DynamicBitset small-buffer optimisation -------------------------------

TEST(BitsetSbo, InlineUniversesNeverAllocate) {
  for (const std::size_t universe : {std::size_t{0}, std::size_t{1},
                                     std::size_t{17}, std::size_t{63},
                                     std::size_t{64}}) {
    DynamicBitset seed(universe);
    for (std::size_t b = 0; b < universe; b += 3) seed.set(b);

    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    DynamicBitset x(universe);
    x.set_range(0, universe / 2);
    DynamicBitset copy(seed);
    copy |= x;
    (void)copy.count();
    (void)copy.union_count(seed);
    (void)copy.symmetric_difference_count(seed);
    (void)copy.subset_of(seed);
    (void)copy.merge_counting(seed);
    DynamicBitset moved(std::move(copy));
    DynamicBitset assigned(universe);
    assigned = moved;
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);

    EXPECT_EQ(before, after) << "universe " << universe << " allocated";
    EXPECT_TRUE(seed.uses_inline_storage());
    EXPECT_TRUE(assigned.uses_inline_storage());
  }
}

TEST(BitsetSbo, HeapUniversesStillWork) {
  DynamicBitset big(65);
  EXPECT_FALSE(big.uses_inline_storage());
  big.set(0).set(64);
  EXPECT_EQ(big.count(), 2u);
  EXPECT_EQ(big.words().size(), 2u);
}

TEST(BitsetSbo, CopyAcrossTheBoundary) {
  DynamicBitset small(60);
  small.set(0).set(59);
  DynamicBitset large(100);
  large.set(0).set(99);

  // Copy-assign heap over inline and inline over heap; both must end up
  // exact copies with the right storage class.
  DynamicBitset a = small;
  a = large;
  EXPECT_EQ(a, large);
  EXPECT_FALSE(a.uses_inline_storage());

  DynamicBitset b = large;
  b = small;
  EXPECT_EQ(b, small);
  EXPECT_TRUE(b.uses_inline_storage());
}

TEST(BitsetSbo, MoveLeavesSourceEmptyAndTargetExact) {
  DynamicBitset small(33);
  small.set(32);
  DynamicBitset moved_small(std::move(small));
  EXPECT_TRUE(moved_small.test(32));
  EXPECT_EQ(moved_small.size(), 33u);

  DynamicBitset large(200);
  large.set(199);
  DynamicBitset moved_large(std::move(large));
  EXPECT_TRUE(moved_large.test(199));
  EXPECT_FALSE(moved_large.uses_inline_storage());

  DynamicBitset target(10);
  target = std::move(moved_large);
  EXPECT_EQ(target.size(), 200u);
  EXPECT_TRUE(target.test(199));
}

TEST(BitsetSbo, WordsSpanIsStableWhileUnmoved) {
  DynamicBitset inline_set(40);
  inline_set.set(5);
  const std::span<const DynamicBitset::Word> before = inline_set.words();
  inline_set.set(20).reset(5).set_range(30, 40);
  const std::span<const DynamicBitset::Word> after = inline_set.words();
  EXPECT_EQ(before.data(), after.data());
  EXPECT_EQ(before.size(), 1u);

  DynamicBitset heap_set(300);
  const std::span<const DynamicBitset::Word> heap_before = heap_set.words();
  heap_set.set(250).set_range(0, 100);
  EXPECT_EQ(heap_before.data(), heap_set.words().data());
  EXPECT_EQ(heap_before.size(), 5u);
}

TEST(BitsetSbo, RoundTripsAcrossSeams) {
  // to_string/from_string and from_or_words agree with bit-level state on
  // both storage classes.
  Xoshiro256 rng(7);
  for (const std::size_t universe : kUniverses) {
    DynamicBitset x(universe);
    DynamicBitset y(universe);
    for (std::size_t b = 0; b < universe; ++b) {
      if (rng() & 1u) x.set(b);
      if (rng() & 1u) y.set(b);
    }
    EXPECT_EQ(DynamicBitset::from_string(x.to_string()), x);
    if (universe > 0) {
      const DynamicBitset expect = x | y;
      const DynamicBitset got = DynamicBitset::from_or_words(
          universe, x.words().data(), y.words().data(), x.words().size());
      EXPECT_EQ(expect, got);
    }
  }
}

}  // namespace
}  // namespace hyperrec
