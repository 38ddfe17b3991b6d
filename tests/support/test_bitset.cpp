#include "support/bitset.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace hyperrec {
namespace {

TEST(DynamicBitset, DefaultConstructedIsEmpty) {
  DynamicBitset bits;
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_EQ(bits.count(), 0u);
}

TEST(DynamicBitset, SizedConstructionStartsClear) {
  DynamicBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.count(), 0u);
  for (std::size_t i = 0; i < 130; i += 17) EXPECT_FALSE(bits.test(i));
}

TEST(DynamicBitset, SetAndTestAcrossWordBoundaries) {
  DynamicBitset bits(130);
  for (const std::size_t pos : {0u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    bits.set(pos);
    EXPECT_TRUE(bits.test(pos)) << pos;
  }
  EXPECT_EQ(bits.count(), 7u);
}

TEST(DynamicBitset, ResetClearsSingleBit) {
  DynamicBitset bits(70);
  bits.set(69).set(1);
  bits.reset(69);
  EXPECT_FALSE(bits.test(69));
  EXPECT_TRUE(bits.test(1));
}

TEST(DynamicBitset, OutOfRangeAccessThrows) {
  DynamicBitset bits(10);
  EXPECT_THROW((void)bits.test(10), PreconditionError);
  EXPECT_THROW(bits.set(10), PreconditionError);
  EXPECT_THROW(bits.reset(11), PreconditionError);
}

TEST(DynamicBitset, SetRangeSetsHalfOpenInterval) {
  DynamicBitset bits(100);
  bits.set_range(60, 70);
  EXPECT_EQ(bits.count(), 10u);
  EXPECT_FALSE(bits.test(59));
  EXPECT_TRUE(bits.test(60));
  EXPECT_TRUE(bits.test(69));
  EXPECT_FALSE(bits.test(70));
}

TEST(DynamicBitset, SetRangeEmptyIsNoop) {
  DynamicBitset bits(10);
  bits.set_range(5, 5);
  EXPECT_EQ(bits.count(), 0u);
}

TEST(DynamicBitset, SetRangeOutOfBoundsThrows) {
  DynamicBitset bits(10);
  EXPECT_THROW(bits.set_range(5, 11), PreconditionError);
  EXPECT_THROW(bits.set_range(7, 3), PreconditionError);
}

TEST(DynamicBitset, SetRangeEmptyAtEveryWordEdge) {
  DynamicBitset bits(200);
  for (const std::size_t pos : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 200u}) {
    bits.set_range(pos, pos);
  }
  EXPECT_EQ(bits.count(), 0u);
}

TEST(DynamicBitset, SetRangeWithinOneWord) {
  DynamicBitset bits(64);
  bits.set_range(3, 9);
  EXPECT_EQ(bits.count(), 6u);
  EXPECT_FALSE(bits.test(2));
  EXPECT_TRUE(bits.test(3));
  EXPECT_TRUE(bits.test(8));
  EXPECT_FALSE(bits.test(9));
}

TEST(DynamicBitset, SetRangeCrossingManyWords) {
  DynamicBitset bits(300);
  bits.set_range(10, 290);
  EXPECT_EQ(bits.count(), 280u);
  EXPECT_FALSE(bits.test(9));
  EXPECT_TRUE(bits.test(10));
  EXPECT_TRUE(bits.test(289));
  EXPECT_FALSE(bits.test(290));
}

TEST(DynamicBitset, SetRangeExactWordEdges) {
  // Ranges whose endpoints land exactly on the 63/64/65 word seams — the
  // cases a word-masked fill gets wrong when the tail mask is off by one.
  struct Case {
    std::size_t first, last;
  };
  for (const Case c : {Case{0, 63}, Case{0, 64}, Case{0, 65}, Case{63, 64},
                       Case{63, 65}, Case{64, 65}, Case{63, 128},
                       Case{64, 128}, Case{65, 129}}) {
    DynamicBitset bits(129);
    bits.set_range(c.first, c.last);
    EXPECT_EQ(bits.count(), c.last - c.first) << c.first << ".." << c.last;
    for (std::size_t pos = 0; pos < bits.size(); ++pos) {
      EXPECT_EQ(bits.test(pos), pos >= c.first && pos < c.last)
          << "range [" << c.first << "," << c.last << ") at bit " << pos;
    }
  }
}

TEST(DynamicBitset, SetRangeFullUniverseAndTailStaysClear) {
  DynamicBitset bits(70);
  bits.set_range(0, 70);
  EXPECT_EQ(bits.count(), 70u);
  // The tail bits past size() must stay zero (words() exposes them).
  EXPECT_EQ(bits.words().back() >> (70 % 64), 0u);
}

TEST(DynamicBitset, SetRangeMatchesPerBitReference) {
  Xoshiro256 rng(0x5E7A);
  for (int round = 0; round < 50; ++round) {
    const std::size_t size = 1 + rng.uniform(180);
    std::size_t lo = rng.uniform(size + 1);
    std::size_t hi = rng.uniform(size + 1);
    if (lo > hi) std::swap(lo, hi);
    DynamicBitset fast(size);
    fast.set_range(lo, hi);
    DynamicBitset slow(size);
    for (std::size_t pos = lo; pos < hi; ++pos) slow.set(pos);
    EXPECT_EQ(fast, slow) << size << " [" << lo << "," << hi << ")";
  }
}

TEST(DynamicBitset, ResetAllClearsEverything) {
  DynamicBitset bits(90);
  bits.set_range(0, 90);
  bits.reset_all();
  EXPECT_EQ(bits.count(), 0u);
}

TEST(DynamicBitset, UnionOperator) {
  auto a = DynamicBitset::from_string("1100");
  auto b = DynamicBitset::from_string("1010");
  EXPECT_EQ((a | b).to_string(), "1110");
}

TEST(DynamicBitset, MixedSizeOperandsThrow) {
  DynamicBitset a(10);
  DynamicBitset b(11);
  EXPECT_THROW(a |= b, PreconditionError);
  EXPECT_THROW((void)a.symmetric_difference_count(b), PreconditionError);
  EXPECT_THROW((void)a.subset_of(b), PreconditionError);
  EXPECT_THROW((void)a.union_count(b), PreconditionError);
}

TEST(DynamicBitset, SubsetOfReflexiveAndStrict) {
  auto a = DynamicBitset::from_string("0110");
  auto b = DynamicBitset::from_string("0111");
  EXPECT_TRUE(a.subset_of(a));
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
}

TEST(DynamicBitset, EmptySetIsSubsetOfEverything) {
  DynamicBitset empty(8);
  auto b = DynamicBitset::from_string("10101010");
  EXPECT_TRUE(empty.subset_of(b));
  EXPECT_TRUE(empty.subset_of(empty));
}

TEST(DynamicBitset, UnionCountWithoutMaterialising) {
  auto a = DynamicBitset::from_string("110000");
  auto b = DynamicBitset::from_string("011000");
  EXPECT_EQ(a.union_count(b), 3u);
  EXPECT_EQ(a.to_string(), "110000") << "operand must stay unchanged";
}

TEST(DynamicBitset, SymmetricDifferenceCount) {
  auto a = DynamicBitset::from_string("1100");
  auto b = DynamicBitset::from_string("0110");
  EXPECT_EQ(a.symmetric_difference_count(b), 2u);
  EXPECT_EQ(a.symmetric_difference_count(a), 0u);
}

TEST(DynamicBitset, MergeCountingReturnsNewBits) {
  auto a = DynamicBitset::from_string("1100");
  auto b = DynamicBitset::from_string("0110");
  EXPECT_EQ(a.merge_counting(b), 1u);
  EXPECT_EQ(a.to_string(), "1110");
  EXPECT_EQ(a.merge_counting(b), 0u) << "merging again adds nothing";
}

TEST(DynamicBitset, ForEachSetVisitsAscending) {
  DynamicBitset bits(200);
  bits.set(3).set(64).set(199);
  std::vector<std::size_t> seen;
  bits.for_each_set([&seen](std::size_t pos) { seen.push_back(pos); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{3, 64, 199}));
}

TEST(DynamicBitset, FindFirstOnEmptyReturnsSize) {
  DynamicBitset bits(77);
  EXPECT_EQ(bits.find_first(), 77u);
  bits.set(70);
  EXPECT_EQ(bits.find_first(), 70u);
}

TEST(DynamicBitset, StringRoundTrip) {
  const std::string pattern = "0110010111010001";
  EXPECT_EQ(DynamicBitset::from_string(pattern).to_string(), pattern);
}

TEST(DynamicBitset, FromStringRejectsGarbage) {
  EXPECT_THROW(DynamicBitset::from_string("01x1"), PreconditionError);
}

TEST(DynamicBitset, FromStringRejectsInvalidCharactersAnywhere) {
  // Leading, trailing, and middle positions; near-miss characters ('2',
  // space, sign) must all be rejected, not coerced.
  EXPECT_THROW(DynamicBitset::from_string("x011"), PreconditionError);
  EXPECT_THROW(DynamicBitset::from_string("011x"), PreconditionError);
  EXPECT_THROW(DynamicBitset::from_string("0121"), PreconditionError);
  EXPECT_THROW(DynamicBitset::from_string("01 1"), PreconditionError);
  EXPECT_THROW(DynamicBitset::from_string("-011"), PreconditionError);
  EXPECT_THROW(DynamicBitset::from_string("01\n1"), PreconditionError);
}

TEST(DynamicBitset, FromStringEmptyStringYieldsEmptyUniverse) {
  const auto bits = DynamicBitset::from_string("");
  EXPECT_EQ(bits.size(), 0u);
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_EQ(bits.to_string(), "");
}

TEST(DynamicBitset, FromStringSpansWordBoundary) {
  // 65 characters forces a second 64-bit word; bit 64 must land in it.
  std::string pattern(65, '0');
  pattern.front() = '1';
  pattern.back() = '1';
  const auto bits = DynamicBitset::from_string(pattern);
  EXPECT_EQ(bits.size(), 65u);
  EXPECT_EQ(bits.count(), 2u);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(64));
  EXPECT_EQ(bits.to_string(), pattern);
}

TEST(DynamicBitset, EqualityComparesSizeAndBits) {
  auto a = DynamicBitset::from_string("101");
  auto b = DynamicBitset::from_string("101");
  auto c = DynamicBitset::from_string("1010");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(DynamicBitset, RandomizedUnionCountAgreesWithMaterialisedUnion) {
  Xoshiro256 rng(42);
  for (int round = 0; round < 50; ++round) {
    DynamicBitset a(150);
    DynamicBitset b(150);
    for (std::size_t i = 0; i < 150; ++i) {
      if (rng.flip(0.3)) a.set(i);
      if (rng.flip(0.3)) b.set(i);
    }
    std::size_t differ = 0;
    for (std::size_t i = 0; i < 150; ++i) differ += a.test(i) != b.test(i);
    EXPECT_EQ(a.union_count(b), (a | b).count());
    EXPECT_EQ(a.symmetric_difference_count(b), differ);
  }
}

TEST(DynamicBitset, RandomizedMergeCountingMatchesCountDelta) {
  Xoshiro256 rng(7);
  for (int round = 0; round < 50; ++round) {
    DynamicBitset a(99);
    DynamicBitset b(99);
    for (std::size_t i = 0; i < 99; ++i) {
      if (rng.flip(0.4)) a.set(i);
      if (rng.flip(0.4)) b.set(i);
    }
    const std::size_t before = a.count();
    const std::size_t added = a.merge_counting(b);
    EXPECT_EQ(a.count(), before + added);
  }
}

}  // namespace
}  // namespace hyperrec
