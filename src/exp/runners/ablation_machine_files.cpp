// Machine-file ablation: the paper's schemes swept over machines that are
// data, not code — the built-in machine descriptions (each the parsed
// equivalent of a file under examples/machines/), covering a heterogeneous
// cluster mix, an L2 + banked-DCache hierarchy, and the prestall/poststall
// switch-policy family next to the paper's vex4x4 baseline.
#include "exp/runners/common.hpp"
#include "isa/machine_file.hpp"
#include "support/string_util.hpp"

namespace cvmt {
namespace {

ExperimentResult run(const RunContext& ctx) {
  const ExperimentConfig& cfg = ctx.params.cfg;

  const char* machines[] = {"vex4x4", "het4422", "l2banked", "prestall",
                            "poststall"};
  const Scheme schemes[] = {Scheme::parse("1S"), Scheme::parse("3CCC"),
                            Scheme::parse("2SC3"), Scheme::parse("3SSS")};

  Dataset t({ColumnSpec::str("Machine"), ColumnSpec::str("Shape"),
             ColumnSpec::str("Policy"), ColumnSpec::real("1S"),
             ColumnSpec::real("3CCC"), ColumnSpec::real("2SC3"),
             ColumnSpec::real("3SSS"),
             ColumnSpec::real("2SC3 vs 1S", 1, "%")});
  for (const char* name : machines) {
    MachineDescription desc;
    CVMT_CHECK(find_builtin_machine(name, desc));
    SimConfig sim = cfg.sim;
    sim.machine = desc.machine;
    sim.mem = desc.mem;
    sim.switch_policy = desc.switch_policy;

    const std::vector<double> avg =
        runners::average_ipc(schemes, sim, cfg.batch);
    t.add_row({std::string(name), desc.machine.shape_label(),
               std::string(to_string(desc.switch_policy)), avg[0], avg[1],
               avg[2], avg[3], percent_diff(avg[2], avg[0])});
  }
  return runners::one_section(
      "Ablation: machine description files", std::move(t),
      "\nNote: machines are the built-in descriptions (mirrored under\n"
      "examples/machines/); rows differ in topology, memory hierarchy\n"
      "or switch policy, so compare schemes within a row.\n");
}

const RegisterExperiment reg{{
    .id = "ablation_machine_files",
    .artifact = "extension",
    .description = "Paper schemes swept over machine description files "
                   "(heterogeneous, L2/banked, switch policies).",
    .schema = {ParamKind::kBudget, ParamKind::kTimeslice,
               ParamKind::kWorkers, ParamKind::kStats},
    .sort_key = 235,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
