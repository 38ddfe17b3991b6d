#include "model/schedule.hpp"

#include <algorithm>

#include "support/ensure.hpp"

namespace hyperrec {

Partition Partition::single(std::size_t n) {
  HYPERREC_ENSURE(n > 0, "partition of an empty range");
  return Partition({0}, n);
}

Partition Partition::every_step(std::size_t n) {
  HYPERREC_ENSURE(n > 0, "partition of an empty range");
  std::vector<std::size_t> starts(n);
  for (std::size_t i = 0; i < n; ++i) starts[i] = i;
  return Partition(std::move(starts), n);
}

Partition Partition::from_starts(std::vector<std::size_t> starts,
                                 std::size_t n) {
  HYPERREC_ENSURE(n > 0, "partition of an empty range");
  HYPERREC_ENSURE(!starts.empty() && starts.front() == 0,
                  "partition must contain a boundary at step 0");
  for (std::size_t i = 1; i < starts.size(); ++i) {
    HYPERREC_ENSURE(starts[i - 1] < starts[i],
                    "partition starts must be strictly increasing");
  }
  HYPERREC_ENSURE(starts.back() < n, "partition start beyond last step");
  return Partition(std::move(starts), n);
}

Partition Partition::from_boundary_mask(const DynamicBitset& mask) {
  HYPERREC_ENSURE(mask.size() > 0, "partition of an empty range");
  std::vector<std::size_t> starts;
  starts.push_back(0);
  mask.for_each_set([&starts](std::size_t pos) {
    if (pos != 0) starts.push_back(pos);
  });
  return Partition(std::move(starts), mask.size());
}

void Partition::assign_boundary_mask(const DynamicBitset& mask) {
  HYPERREC_ENSURE(mask.size() > 0, "partition of an empty range");
  starts_.clear();
  starts_.push_back(0);
  mask.for_each_set([this](std::size_t pos) {
    if (pos != 0) starts_.push_back(pos);
  });
  n_ = mask.size();
}

std::size_t Partition::interval_of(std::size_t step) const {
  HYPERREC_ENSURE(step < n_, "step out of range");
  const auto it = std::upper_bound(starts_.begin(), starts_.end(), step);
  return static_cast<std::size_t>(it - starts_.begin()) - 1;
}

std::pair<std::size_t, std::size_t> Partition::interval_bounds(
    std::size_t k) const {
  HYPERREC_ENSURE(k < starts_.size(), "interval index out of range");
  const std::size_t start = starts_[k];
  const std::size_t end = (k + 1 < starts_.size()) ? starts_[k + 1] : n_;
  return {start, end};
}

bool Partition::is_boundary(std::size_t step) const {
  HYPERREC_ENSURE(step < n_, "step out of range");
  return std::binary_search(starts_.begin(), starts_.end(), step);
}

void Partition::extend(std::size_t new_n) {
  HYPERREC_ENSURE(new_n >= n_, "extend cannot shrink a partition");
  n_ = new_n;
}

void Partition::replace_tail(std::size_t lo, std::span<const std::size_t> tail,
                             std::size_t shift, std::size_t n) {
  HYPERREC_ENSURE(0 < n && lo <= n, "partition splice beyond its steps");
  HYPERREC_ENSURE(lo > 0 || (!tail.empty() && tail.front() + shift == 0),
                  "partition must contain a boundary at step 0");
  for (std::size_t i = 0; i < tail.size(); ++i) {
    HYPERREC_ENSURE(tail[i] + shift >= lo && (i == 0 || tail[i - 1] < tail[i]),
                    "partition starts must be strictly increasing");
  }
  HYPERREC_ENSURE(tail.empty() || tail.back() + shift < n,
                  "partition start beyond last step");
  hyperrec::replace_tail(starts_, lo, tail, shift);
  n_ = n;
}

DynamicBitset Partition::to_boundary_mask() const {
  DynamicBitset mask(n_);
  for (const std::size_t s : starts_) mask.set(s);
  return mask;
}

MultiTaskSchedule MultiTaskSchedule::all_single(std::size_t m, std::size_t n) {
  MultiTaskSchedule schedule;
  schedule.tasks.assign(m, Partition::single(n));
  return schedule;
}

MultiTaskSchedule MultiTaskSchedule::all_every_step(std::size_t m,
                                                    std::size_t n) {
  MultiTaskSchedule schedule;
  schedule.tasks.assign(m, Partition::every_step(n));
  return schedule;
}

std::size_t MultiTaskSchedule::partial_hyper_steps() const {
  if (tasks.empty()) return 0;
  DynamicBitset any(tasks[0].n());
  for (const Partition& partition : tasks) any |= partition.to_boundary_mask();
  return any.count();
}

void MultiTaskSchedule::validate(std::size_t m, std::size_t n) const {
  HYPERREC_ENSURE(tasks.size() == m, "schedule task count mismatch");
  for (const Partition& partition : tasks) {
    HYPERREC_ENSURE(partition.n() == n, "schedule step count mismatch");
  }
  // The evaluators binary-search this vector, so the contract is strictly
  // increasing — an unsorted or duplicated list would silently mis-count
  // global hyperreconfigurations instead of failing here.
  for (std::size_t b = 1; b < global_boundaries.size(); ++b) {
    HYPERREC_ENSURE(global_boundaries[b - 1] < global_boundaries[b],
                    "global boundaries must be strictly increasing");
  }
  for (const std::size_t g : global_boundaries) {
    HYPERREC_ENSURE(g < n, "global boundary beyond last step");
    for (const Partition& partition : tasks) {
      HYPERREC_ENSURE(partition.is_boundary(g),
                      "global hyperreconfiguration requires a local boundary "
                      "in every task");
    }
  }
}

void replace_tail(std::vector<std::size_t>& steps, std::size_t lo,
                  std::span<const std::size_t> tail, std::size_t shift) {
  const auto kept = static_cast<std::size_t>(
      std::lower_bound(steps.begin(), steps.end(), lo) - steps.begin());
  // Grow geometrically, as push_back would: an exact reserve would copy
  // the whole list on every splice that lengthens it.
  if (kept + tail.size() > steps.capacity()) {
    steps.reserve(std::max(kept + tail.size(), 2 * steps.capacity()));
  }
  steps.resize(kept);
  for (const std::size_t s : tail) steps.push_back(s + shift);
}

}  // namespace hyperrec
