#include "model/instance.hpp"

namespace hyperrec {

SolveInstance::SolveInstance(MultiTaskTrace trace, MachineSpec machine,
                             EvalOptions options) {
  auto data = std::make_unique<Data>();
  data->trace = std::move(trace);
  data->machine = std::move(machine);
  data->options = options;
  data->machine.validate_trace(data->trace);
  data->stats = MultiTaskTraceStats(data->trace);
  data_ = std::move(data);
}

}  // namespace hyperrec
