// Schedules: when each task performs (partial) hyperreconfigurations.
//
// A Partition divides a task's step range [0, n) into consecutive intervals;
// a new interval starting at step s means the task performs a local
// hyperreconfiguration immediately before step s.  Every partition contains
// a boundary at step 0: the paper assumes each task must define a local
// hypercontext after the (implicit) initial global hyperreconfiguration.
//
// A MultiTaskSchedule combines one Partition per task plus the steps where
// *global* hyperreconfigurations happen (meaningful only for machines with
// global resources; always at least step 0 in that case).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "support/bitset.hpp"

namespace hyperrec {

class Partition {
 public:
  /// Single interval covering all n steps (hyperreconfigure once, at start).
  [[nodiscard]] static Partition single(std::size_t n);

  /// A boundary before every step (hyperreconfigure n times).
  [[nodiscard]] static Partition every_step(std::size_t n);

  /// From explicit interval start steps; must begin with 0, be strictly
  /// increasing and below n.
  [[nodiscard]] static Partition from_starts(std::vector<std::size_t> starts,
                                             std::size_t n);

  /// From a boundary bitmask over [0, n): bit s set ⇔ interval starts at s.
  /// Bit 0 is implicitly treated as set.
  [[nodiscard]] static Partition from_boundary_mask(const DynamicBitset& mask);

  /// In-place from_boundary_mask: rebuilds this partition reusing the starts
  /// storage.  The alloc-free rebuild path for enumeration loops that walk
  /// millions of candidate schedules (core/exhaustive.cpp).
  void assign_boundary_mask(const DynamicBitset& mask);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t interval_count() const noexcept {
    return starts_.size();
  }
  [[nodiscard]] const std::vector<std::size_t>& starts() const noexcept {
    return starts_;
  }

  /// Index of the interval containing `step` (binary search, O(log r)).
  [[nodiscard]] std::size_t interval_of(std::size_t step) const;

  /// Half-open bounds [start, end) of interval k.
  [[nodiscard]] std::pair<std::size_t, std::size_t> interval_bounds(
      std::size_t k) const;

  /// True iff an interval starts at `step`.
  [[nodiscard]] bool is_boundary(std::size_t step) const;

  /// Grows the covered range to `new_n` steps (new_n >= n()); the appended
  /// steps join the last interval.  O(1) — the streaming layer extends
  /// every task's published partition once per appended step, so this must
  /// not copy the starts.
  void extend(std::size_t new_n);

  /// Replaces the starts at or after `lo` with `tail`'s, each plus `shift`,
  /// and covers `n` steps.  replace_tail(lo, w.starts(), lo, lo + w.n())
  /// gives what stitch gives for this partition's first lo steps followed
  /// by partition w, in O(replaced + tail) instead of O(starts); the same
  /// call with the replaced starts, shift 0 and the old n undoes it without
  /// allocating.  Checks only that the result is a partition; a throw
  /// leaves it unchanged.
  void replace_tail(std::size_t lo, std::span<const std::size_t> tail,
                    std::size_t shift, std::size_t n);

  /// Boundary bitmask over [0, n).
  [[nodiscard]] DynamicBitset to_boundary_mask() const;

 private:
  Partition(std::vector<std::size_t> starts, std::size_t n)
      : starts_(std::move(starts)), n_(n) {}

  std::vector<std::size_t> starts_;
  std::size_t n_ = 0;
};

struct MultiTaskSchedule {
  std::vector<Partition> tasks;

  /// Steps with a global hyperreconfiguration; strictly increasing, and a
  /// subset of every task's boundaries (a global hyperreconfiguration
  /// invalidates all local hypercontexts, §3).  Leave empty for machines
  /// without global resources.
  std::vector<std::size_t> global_boundaries;

  /// All tasks hyperreconfigure exactly once, at step 0.
  [[nodiscard]] static MultiTaskSchedule all_single(std::size_t m,
                                                    std::size_t n);

  /// Every task hyperreconfigures before every step.
  [[nodiscard]] static MultiTaskSchedule all_every_step(std::size_t m,
                                                        std::size_t n);

  /// Total number of steps at which at least one task hyperreconfigures.
  [[nodiscard]] std::size_t partial_hyper_steps() const;

  /// Validates shape against a step count and task count; throws on error.
  void validate(std::size_t m, std::size_t n) const;
};

/// Partition::replace_tail's edit for a sorted list of steps such as the
/// global boundaries, unchecked; it allocates before it changes anything.
void replace_tail(std::vector<std::size_t>& steps, std::size_t lo,
                  std::span<const std::size_t> tail, std::size_t shift);

}  // namespace hyperrec
