#include "model/trace.hpp"

namespace hyperrec {

void TaskTrace::push_back(ContextRequirement req) {
  HYPERREC_ENSURE(req.local.size() == local_universe_,
                  "requirement universe differs from task universe");
  steps_.push_back(std::move(req));
}

DynamicBitset TaskTrace::local_union_naive(std::size_t first,
                                           std::size_t last) const {
  HYPERREC_ENSURE(first <= last && last <= steps_.size(),
                  "union range out of bounds");
  DynamicBitset result(local_universe_);
  for (std::size_t i = first; i < last; ++i) result |= steps_[i].local;
  return result;
}

std::uint32_t TaskTrace::max_private_demand_naive(std::size_t first,
                                                  std::size_t last) const {
  HYPERREC_ENSURE(first <= last && last <= steps_.size(),
                  "demand range out of bounds");
  std::uint32_t demand = 0;
  for (std::size_t i = first; i < last; ++i)
    demand = std::max(demand, steps_[i].private_demand);
  return demand;
}

TaskTrace TaskTrace::slice(std::size_t first, std::size_t last) const {
  HYPERREC_ENSURE(first <= last && last <= steps_.size(),
                  "slice range out of bounds");
  TaskTrace out(local_universe_);
  out.steps_.assign(steps_.begin() + static_cast<std::ptrdiff_t>(first),
                    steps_.begin() + static_cast<std::ptrdiff_t>(last));
  return out;
}

void MultiTaskTrace::append_step(std::vector<ContextRequirement> step) {
  HYPERREC_ENSURE(!tasks_.empty(), "append_step needs at least one task");
  HYPERREC_ENSURE(step.size() == tasks_.size(),
                  "append_step needs exactly one requirement per task");
  HYPERREC_ENSURE(synchronized(),
                  "append_step requires a synchronized trace");
  // Validate every universe before mutating ANY task: a mismatch surfacing
  // after task 0 pushed would leave the trace permanently unsynchronized.
  for (std::size_t j = 0; j < tasks_.size(); ++j) {
    HYPERREC_ENSURE(step[j].local.size() == tasks_[j].local_universe(),
                    "requirement universe differs from its task's universe");
  }
  for (std::size_t j = 0; j < tasks_.size(); ++j) {
    tasks_[j].push_back(std::move(step[j]));
  }
}

std::vector<ContextRequirement> MultiTaskTrace::step(std::size_t i) const {
  HYPERREC_ENSURE(!tasks_.empty(), "step() needs at least one task");
  HYPERREC_ENSURE(synchronized(), "step() requires a synchronized trace");
  std::vector<ContextRequirement> step;
  step.reserve(tasks_.size());
  for (const TaskTrace& task : tasks_) {
    step.push_back(task.at(i));
  }
  return step;
}

bool MultiTaskTrace::synchronized() const noexcept {
  for (std::size_t j = 1; j < tasks_.size(); ++j)
    if (tasks_[j].size() != tasks_[0].size()) return false;
  return true;
}

std::size_t MultiTaskTrace::steps() const {
  HYPERREC_ENSURE(!tasks_.empty(), "trace has no tasks");
  HYPERREC_ENSURE(synchronized(), "steps() requires a synchronized trace");
  return tasks_[0].size();
}

MultiTaskTrace MultiTaskTrace::slice(std::size_t first,
                                     std::size_t last) const {
  MultiTaskTrace out;
  out.tasks_.reserve(tasks_.size());
  for (const TaskTrace& task : tasks_) {
    out.tasks_.push_back(task.slice(first, last));
  }
  return out;
}

MultiTaskTrace MultiTaskTrace::from_local(
    const std::vector<std::size_t>& universes,
    const std::vector<std::vector<DynamicBitset>>& requirements) {
  HYPERREC_ENSURE(universes.size() == requirements.size(),
                  "one universe size per task required");
  MultiTaskTrace trace;
  for (std::size_t j = 0; j < universes.size(); ++j) {
    TaskTrace task(universes[j]);
    for (const DynamicBitset& req : requirements[j]) {
      task.push_back_local(req);
    }
    trace.add_task(std::move(task));
  }
  return trace;
}

}  // namespace hyperrec
