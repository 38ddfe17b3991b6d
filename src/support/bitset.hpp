// DynamicBitset: a run-time sized bitset with set-algebra operations.
//
// This is the core data structure of the library: context requirements and
// hypercontexts in the switch cost model (Lange/Middendorf 2004, §2 and §4)
// are subsets of a fixed universe of reconfigurable units ("switches"), and
// every solver manipulates unions, union sizes, symmetric-difference sizes
// and subset tests of such subsets.  std::bitset has a compile-time size and
// std::vector<bool> has no word-level algebra, hence this class.  It offers
// only the algebra the solvers use.
//
// Storage: small-buffer optimised.  A universe of <= 64 bits lives in a
// single inline word — no heap allocation at all, which is where most
// workload families (universe 6..64) live, so interval-union
// materialisation, schedule decoding and changeover evaluation stay
// allocation-free on those instances.  Larger universes use one heap
// array.  `words()` exposes the storage as a {pointer, length} span either
// way.
//
// All word loops route through support/bitset_kernels.hpp — one loop body
// per kernel, run in place for 1–2 words and through the runtime-dispatched
// scalar/AVX2/AVX-512 table beyond.
//
// All binary operations require both operands to have the same size() and
// throw PreconditionError otherwise.
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "support/bitset_kernels.hpp"
#include "support/ensure.hpp"

namespace hyperrec {

class DynamicBitset {
 public:
  using Word = kernels::Word;
  static constexpr std::size_t kWordBits = 64;

  /// Empty set over an empty universe.
  DynamicBitset() = default;

  /// Empty set over a universe of `size` elements (all bits clear).
  explicit DynamicBitset(std::size_t size)
      : size_(size), nwords_(word_count(size)) {
    if (nwords_ > 1) heap_ = std::make_unique<Word[]>(nwords_);  // zeroed
  }

  DynamicBitset(const DynamicBitset& other)
      : size_(other.size_),
        nwords_(other.nwords_),
        inline_word_(other.inline_word_) {
    if (other.heap_) {
      heap_ = std::make_unique_for_overwrite<Word[]>(nwords_);
      std::copy(other.heap_.get(), other.heap_.get() + nwords_, heap_.get());
    }
  }

  DynamicBitset(DynamicBitset&& other) noexcept
      : size_(std::exchange(other.size_, 0)),
        nwords_(std::exchange(other.nwords_, 0)),
        inline_word_(std::exchange(other.inline_word_, 0)),
        heap_(std::move(other.heap_)) {}

  DynamicBitset& operator=(const DynamicBitset& other) {
    if (this == &other) return *this;
    if (other.heap_) {
      // Reuse the existing allocation when the word counts already match.
      if (nwords_ != other.nwords_ || !heap_) {
        heap_ = std::make_unique_for_overwrite<Word[]>(other.nwords_);
      }
      std::copy(other.heap_.get(), other.heap_.get() + other.nwords_,
                heap_.get());
    } else {
      heap_.reset();
      inline_word_ = other.inline_word_;
    }
    size_ = other.size_;
    nwords_ = other.nwords_;
    return *this;
  }

  DynamicBitset& operator=(DynamicBitset&& other) noexcept {
    if (this == &other) return *this;
    size_ = std::exchange(other.size_, 0);
    nwords_ = std::exchange(other.nwords_, 0);
    inline_word_ = std::exchange(other.inline_word_, 0);
    heap_ = std::move(other.heap_);
    return *this;
  }

  ~DynamicBitset() = default;

  /// Universe size (number of addressable bits).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True when the set lives entirely in the inline word (universe <= 64):
  /// construction, copies and set algebra perform no heap allocation.
  [[nodiscard]] bool uses_inline_storage() const noexcept {
    return heap_ == nullptr;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept {
    return kernels::popcount(data(), nwords_);
  }

  [[nodiscard]] bool test(std::size_t pos) const {
    HYPERREC_ENSURE(pos < size_, "bit index out of range");
    return (data()[pos / kWordBits] >> (pos % kWordBits)) & 1u;
  }

  DynamicBitset& set(std::size_t pos) {
    HYPERREC_ENSURE(pos < size_, "bit index out of range");
    data()[pos / kWordBits] |= Word{1} << (pos % kWordBits);
    return *this;
  }

  DynamicBitset& reset(std::size_t pos) {
    HYPERREC_ENSURE(pos < size_, "bit index out of range");
    data()[pos / kWordBits] &= ~(Word{1} << (pos % kWordBits));
    return *this;
  }

  /// Sets bits [first, last) — convenient for contiguous per-task switch
  /// ranges such as SHyRA's bit layout.
  DynamicBitset& set_range(std::size_t first, std::size_t last);

  /// Clears all bits.
  DynamicBitset& reset_all() noexcept;

  [[nodiscard]] bool any() const noexcept;
  [[nodiscard]] bool none() const noexcept { return !any(); }

  DynamicBitset& operator|=(const DynamicBitset& other) {
    check_same_size(other);
    kernels::or_words(data(), data(), other.data(), nwords_);
    return *this;
  }

  [[nodiscard]] friend DynamicBitset operator|(DynamicBitset a,
                                               const DynamicBitset& b) {
    a |= b;
    return a;
  }

  [[nodiscard]] bool operator==(const DynamicBitset& other) const noexcept {
    if (size_ != other.size_) return false;
    const Word* mine = data();
    const Word* theirs = other.data();
    for (std::size_t i = 0; i < nwords_; ++i) {
      if (mine[i] != theirs[i]) return false;
    }
    return true;
  }

  /// True iff this ⊆ other (every set bit of *this is set in other).
  [[nodiscard]] bool subset_of(const DynamicBitset& other) const {
    check_same_size(other);
    return kernels::subset(data(), other.data(), nwords_);
  }

  /// |this ∪ other| without materialising the union.
  [[nodiscard]] std::size_t union_count(const DynamicBitset& other) const {
    check_same_size(other);
    return kernels::or_popcount(data(), other.data(), nwords_);
  }

  /// |this Δ other| (symmetric difference), the changeover cost of §4.1.
  [[nodiscard]] std::size_t symmetric_difference_count(
      const DynamicBitset& other) const {
    check_same_size(other);
    return kernels::xor_popcount(data(), other.data(), nwords_);
  }

  /// In-place union that also returns the number of bits newly added —
  /// lets interval DPs maintain running union popcounts in O(words).
  /// `other` must not be this set.
  std::size_t merge_counting(const DynamicBitset& other) {
    check_same_size(other);
    return kernels::or_merge_count(data(), other.data(), nwords_);
  }

  /// Calls `fn(pos)` for every set bit in ascending order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    const Word* words = data();
    for (std::size_t w = 0; w < nwords_; ++w) {
      Word word = words[w];
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        fn(w * kWordBits + bit);
        word &= word - 1;
      }
    }
  }

  /// Index of the lowest set bit, or size() if empty.
  [[nodiscard]] std::size_t find_first() const noexcept;

  /// "011010…"-style string, index 0 leftmost.  Useful in test diagnostics.
  [[nodiscard]] std::string to_string() const;

  /// Parses a string of '0'/'1' characters (index 0 leftmost).
  [[nodiscard]] static DynamicBitset from_string(const std::string& bits);

  /// Builds a set over `size` elements from the word-wise OR of two raw
  /// rows of `words` words each (the materialisation path of
  /// TaskTraceStats).  The rows' tail bits past `size` must be zero, and
  /// `words` must match the universe's word count.
  [[nodiscard]] static DynamicBitset from_or_words(std::size_t size,
                                                   const Word* a,
                                                   const Word* b,
                                                   std::size_t words);

  /// FNV-1a over the words — for unordered_map memoisation keys.
  [[nodiscard]] std::size_t hash() const noexcept;

  /// Raw word access (read-only) for bulk algorithms.  The span stays valid
  /// and stable while the bitset is alive and unmoved (inline or heap).
  [[nodiscard]] std::span<const Word> words() const noexcept {
    return {data(), nwords_};
  }

 private:
  static std::size_t word_count(std::size_t bits) {
    return (bits + kWordBits - 1) / kWordBits;
  }
  [[nodiscard]] Word* data() noexcept {
    return heap_ ? heap_.get() : &inline_word_;
  }
  [[nodiscard]] const Word* data() const noexcept {
    return heap_ ? heap_.get() : &inline_word_;
  }
  void check_same_size(const DynamicBitset& other) const {
    HYPERREC_ENSURE(size_ == other.size_,
                    "bitset operands have different universe sizes");
  }
  // Bits past size_ in the last word are kept at zero by all mutators.
  void clear_tail() noexcept;

  std::size_t size_ = 0;
  std::size_t nwords_ = 0;
  /// The single storage word for universes <= 64 (heap_ == nullptr).
  Word inline_word_ = 0;
  /// Heap storage for universes > 64; null otherwise.
  std::unique_ptr<Word[]> heap_;
};

struct DynamicBitsetHash {
  std::size_t operator()(const DynamicBitset& b) const noexcept {
    return b.hash();
  }
};

}  // namespace hyperrec
