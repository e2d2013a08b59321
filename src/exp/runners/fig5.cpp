// Fig 5: thread-merge-control cost (transistors, gate delays) for CSMT
// serial, CSMT parallel and SMT designs, for 2..8 threads. Pure cost
// model, no simulation.
#include "cost/merge_control_cost.hpp"
#include "exp/runners/common.hpp"

namespace cvmt {
namespace {

ExperimentResult run(const RunContext& ctx) {
  const MachineConfig& machine = ctx.params.cfg.sim.machine;
  Dataset t({ColumnSpec::integer("Threads"),
             ColumnSpec::integer("CSMT SL trans", /*grouped=*/true),
             ColumnSpec::integer("CSMT PL trans", /*grouped=*/true),
             ColumnSpec::integer("SMT trans", /*grouped=*/true),
             ColumnSpec::real("CSMT SL delay", 1),
             ColumnSpec::real("CSMT PL delay", 1),
             ColumnSpec::real("SMT delay", 1)});
  for (int n = 2; n <= 8; ++n) {
    const Circuit serial = csmt_serial_control(n, machine);
    const Circuit parallel = csmt_parallel_control(n, machine);
    const Circuit smt = smt_serial_control(n, machine);
    t.add_row({Cell{static_cast<std::int64_t>(n)}, Cell{serial.transistors},
               Cell{parallel.transistors}, Cell{smt.transistors},
               serial.delay, parallel.delay, smt.delay});
  }
  return runners::one_section(
      "Figure 5: merge control cost vs number of threads (4-cluster, "
      "4-issue/cluster)",
      std::move(t),
      "\nShape checks (paper Sec. 3):\n"
      "  * SMT cost explodes with threads (limits SMT to 2)\n"
      "  * CSMT serial stays linear in both metrics\n"
      "  * CSMT parallel: flat delay, exponential area\n");
}

const RegisterExperiment reg{{
    .id = "fig5",
    .artifact = "Figure 5",
    .description = "Merge-control hardware cost vs thread count (cost "
                   "model only).",
    .schema = {ParamKind::kMachine},
    .sort_key = 40,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
