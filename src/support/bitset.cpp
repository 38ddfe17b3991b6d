#include "support/bitset.hpp"

#include <algorithm>
#include <bit>

namespace hyperrec {

DynamicBitset& DynamicBitset::set_range(std::size_t first, std::size_t last) {
  HYPERREC_ENSURE(first <= last && last <= size_, "bit range out of bounds");
  if (first == last) return *this;
  Word* words = data();
  const std::size_t first_word = first / kWordBits;
  const std::size_t last_word = (last - 1) / kWordBits;
  const Word first_mask = ~Word{0} << (first % kWordBits);
  const std::size_t last_rem = last % kWordBits;
  const Word last_mask =
      last_rem == 0 ? ~Word{0} : ~Word{0} >> (kWordBits - last_rem);
  if (first_word == last_word) {
    words[first_word] |= first_mask & last_mask;
    return *this;
  }
  words[first_word] |= first_mask;
  for (std::size_t w = first_word + 1; w < last_word; ++w) words[w] = ~Word{0};
  words[last_word] |= last_mask;
  return *this;
}

DynamicBitset& DynamicBitset::reset_all() noexcept {
  Word* words = data();
  for (std::size_t i = 0; i < nwords_; ++i) words[i] = 0;
  return *this;
}

std::size_t DynamicBitset::find_first() const noexcept {
  const Word* words = data();
  for (std::size_t w = 0; w < nwords_; ++w) {
    if (words[w] != 0) {
      return w * kWordBits + static_cast<std::size_t>(std::countr_zero(words[w]));
    }
  }
  return size_;
}

std::string DynamicBitset::to_string() const {
  // Word-at-a-time: only set bits are written, with no per-bit bounds
  // checks — the tail-bits-zero invariant guarantees every position fits.
  std::string out(size_, '0');
  const Word* words = data();
  for (std::size_t w = 0; w < nwords_; ++w) {
    Word word = words[w];
    char* chunk = out.data() + w * kWordBits;
    while (word != 0) {
      chunk[std::countr_zero(word)] = '1';
      word &= word - 1;
    }
  }
  return out;
}

DynamicBitset DynamicBitset::from_string(const std::string& bits) {
  // One validation pass up front, then branch-free word assembly — this
  // runs inside trace-io and fuzz-failure diagnostics where the old
  // per-bit set() (a bounds ENSURE per character) dominated.
  HYPERREC_ENSURE(bits.find_first_not_of("01") == std::string::npos,
                  "bitset string must contain only '0' and '1'");
  DynamicBitset result(bits.size());
  Word* words = result.data();
  for (std::size_t w = 0; w < result.nwords_; ++w) {
    const std::size_t base = w * kWordBits;
    const std::size_t limit = std::min(kWordBits, bits.size() - base);
    Word word = 0;
    for (std::size_t i = 0; i < limit; ++i) {
      word |= static_cast<Word>(bits[base + i] - '0') << i;
    }
    words[w] = word;
  }
  return result;
}

DynamicBitset DynamicBitset::from_or_words(std::size_t size, const Word* a,
                                           const Word* b, std::size_t words) {
  DynamicBitset result(size);
  HYPERREC_ENSURE(words == result.nwords_,
                  "word count does not match the universe size");
  kernels::or_words(result.data(), a, b, words);
  result.clear_tail();
  return result;
}

void DynamicBitset::clear_tail() noexcept {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0 && nwords_ != 0) {
    data()[nwords_ - 1] &= (Word{1} << rem) - 1;
  }
}

}  // namespace hyperrec
