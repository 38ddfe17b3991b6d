#include "model/instance.hpp"

namespace hyperrec {

SolveInstance::SolveInstance(MultiTaskTrace trace, MachineSpec machine,
                             EvalOptions options) {
  auto data = std::make_unique<Data>();
  data->trace = std::move(trace);
  data->machine = std::move(machine);
  data->options = options;
  data->machine.validate_trace(data->trace);
  data_ = std::move(data);
}

const MultiTaskTraceStats& SolveInstance::stats() const {
  // A throwing build (bad_alloc) leaves the flag unset, so the next caller
  // tries again instead of reading half-built tables.
  std::call_once(data_->stats_built, [data = data_.get()] {
    data->stats = MultiTaskTraceStats(data->trace);
  });
  return data_->stats;
}

}  // namespace hyperrec
