#include "sim/simulation.hpp"

#include "sim/session.hpp"

namespace cvmt {

SimResult run_simulation(
    const Scheme& scheme,
    const std::vector<std::shared_ptr<const SyntheticProgram>>& programs,
    const SimConfig& config) {
  CVMT_CHECK_MSG(!programs.empty(), "empty workload");
  config.machine.validate();
  // One-shot session: compile, run once, discard. Sweeps that run many
  // configurations keep a SimSession / SimInstance instead (sim/session.hpp)
  // and reuse the compiled artifacts and run-state buffers.
  SimInstance instance(
      std::make_shared<const CompiledScheme>(scheme, config.machine),
      config);
  return instance.run(programs);
}

}  // namespace cvmt
