// Kernel-layer microbench: scalar vs dispatched SIMD word kernels across
// the universe sizes the solver stack actually sees.
//
// Universes 8/63/64/65 probe the small-buffer and word-seam regime (1–2
// words, where the wrappers run the loop body in place and SIMD cannot pay
// for its call); 256/1024/4096 are the large-universe regime where the
// dispatched flavour (AVX-512: the loop bodies compiled for it; AVX2:
// hand-written counting kernels) should beat the scalar loops, which run
// with hardware popcount on x86-64.  Each op row reports scalar ns/op,
// dispatched ns/op and the speedup, plus a checksum column proving both
// flavours computed identical results (the bit-identity contract of
// support/bitset_kernels.hpp, enforced here so a broken flavour fails the
// smoke run, not just the unit suite).
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "support/bitset_kernels.hpp"
#include "support/ensure.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace hyperrec;
using kernels::KernelTable;
using kernels::Word;

std::vector<Word> random_words(std::size_t n, Xoshiro256& rng) {
  std::vector<Word> words(n);
  for (Word& w : words) w = rng();
  return words;
}

double ns_per_op(std::uint64_t nanos, std::size_t iters) {
  return static_cast<double>(nanos) / static_cast<double>(iters);
}

/// Times `iters` calls of `op`, folding every result into a checksum so the
/// optimiser cannot drop the loop.
template <typename Op>
std::pair<std::uint64_t, std::size_t> time_op(std::size_t iters, Op&& op) {
  std::size_t checksum = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t it = 0; it < iters; ++it) checksum += op(it);
  const auto stop = std::chrono::steady_clock::now();
  const auto nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
  return {nanos, checksum};
}

struct OpResult {
  double scalar_ns = 0;
  double simd_ns = 0;
  std::size_t scalar_sum = 0;
  std::size_t simd_sum = 0;
};

template <typename MakeOp>
OpResult run_both(std::size_t iters, MakeOp&& make_op) {
  OpResult result;
  // Interleaved rounds so neither flavour monopolises a warm cache.
  const std::size_t rounds = 3;
  const std::size_t chunk = iters / rounds + 1;
  std::uint64_t scalar_nanos = 0;
  std::uint64_t simd_nanos = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    auto scalar = time_op(chunk, make_op(kernels::scalar_table()));
    auto simd = time_op(chunk, make_op(kernels::active_table()));
    scalar_nanos += scalar.first;
    simd_nanos += simd.first;
    result.scalar_sum += scalar.second;
    result.simd_sum += simd.second;
  }
  result.scalar_ns = ns_per_op(scalar_nanos, rounds * chunk);
  result.simd_ns = ns_per_op(simd_nanos, rounds * chunk);
  return result;
}

std::string speedup(const OpResult& r) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx",
                r.simd_ns > 0 ? r.scalar_ns / r.simd_ns : 0.0);
  return buf;
}

std::string fmt_ns(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", ns);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke_mode(argc, argv);
  const std::size_t base_iters = bench::pick<std::size_t>(smoke, 200000, 2000);

  std::printf("=== Bitset kernel layer: scalar vs dispatched (%s) ===\n",
              kernels::active_isa());
  if (kernels::force_scalar_requested()) {
    std::printf("(HYPERREC_FORCE_SCALAR set — dispatched == scalar)\n");
  }
  std::printf("\n");

  Table table;
  table.headers({"universe", "words", "op", "scalar ns/op", "simd ns/op",
                 "speedup"});

  const std::size_t universes[] = {8, 63, 64, 65, 256, 1024, 4096};
  Xoshiro256 rng(2004);
  for (const std::size_t universe : universes) {
    const std::size_t n = (universe + 63) / 64;
    // Scale iteration counts down for big arrays so full runs stay short.
    const std::size_t iters = base_iters / (1 + n / 8) + 1;
    const std::vector<Word> a = random_words(n, rng);
    const std::vector<Word> b = random_words(n, rng);
    const std::vector<Word> c = random_words(n, rng);
    std::vector<Word> dst(n, 0);

    {
      auto r = run_both(iters, [&](const KernelTable& t) {
        return [&, op = t.or_words](std::size_t) {
          op(dst.data(), a.data(), b.data(), n);
          return static_cast<std::size_t>(dst[0] & 1u);
        };
      });
      HYPERREC_ENSURE(r.scalar_sum == r.simd_sum,
                      "scalar/simd union divergence");
      table.row(universe, n, "union", fmt_ns(r.scalar_ns), fmt_ns(r.simd_ns),
                speedup(r));
    }
    {
      auto r = run_both(iters, [&](const KernelTable& t) {
        return [&, op = t.or_popcount](std::size_t) {
          return op(a.data(), b.data(), n);
        };
      });
      HYPERREC_ENSURE(r.scalar_sum == r.simd_sum,
                      "scalar/simd union-count divergence");
      table.row(universe, n, "union count", fmt_ns(r.scalar_ns),
                fmt_ns(r.simd_ns), speedup(r));
    }
    {
      auto r = run_both(iters, [&](const KernelTable& t) {
        return [&, op = t.xor_popcount](std::size_t) {
          return op(a.data(), b.data(), n);
        };
      });
      HYPERREC_ENSURE(r.scalar_sum == r.simd_sum,
                      "scalar/simd changeover-count divergence");
      table.row(universe, n, "changeover count", fmt_ns(r.scalar_ns),
                fmt_ns(r.simd_ns), speedup(r));
    }
    {
      auto r = run_both(iters, [&](const KernelTable& t) {
        return [&, op = t.or3_popcount](std::size_t) {
          return op(a.data(), b.data(), c.data(), n);
        };
      });
      HYPERREC_ENSURE(r.scalar_sum == r.simd_sum,
                      "scalar/simd fused-union-count divergence");
      table.row(universe, n, "3-way union count", fmt_ns(r.scalar_ns),
                fmt_ns(r.simd_ns), speedup(r));
    }
    {
      auto r = run_both(iters, [&](const KernelTable& t) {
        return [&, op = t.subset](std::size_t) {
          return static_cast<std::size_t>(op(a.data(), b.data(), n));
        };
      });
      HYPERREC_ENSURE(r.scalar_sum == r.simd_sum,
                      "scalar/simd subset divergence");
      table.row(universe, n, "subset", fmt_ns(r.scalar_ns), fmt_ns(r.simd_ns),
                speedup(r));
    }
  }
  table.print(std::cout);
  std::printf(
      "\nWrappers run the loop body in place for <= %zu words, so universes "
      "<= 128 never pay the dispatch call; speedups above show the table "
      "flavours head-to-head.\n",
      kernels::kInlineWords);
  return 0;
}
