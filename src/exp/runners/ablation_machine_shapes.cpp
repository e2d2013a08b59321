// Machine-shape ablation: the paper fixes a 4-cluster x 4-issue machine;
// this sweeps the (clusters, issue-width) grid at a constant-ish total
// width and shows how the scheme trade-off shifts. More clusters favour
// CSMT (finer-grained cluster allocation); wider clusters favour SMT
// (more room to pack operations).
#include "exp/runners/common.hpp"
#include "support/string_util.hpp"

namespace cvmt {
namespace {

ExperimentResult run(const RunContext& ctx) {
  const ExperimentConfig& cfg = ctx.params.cfg;

  const std::pair<int, int> shapes[] = {
      {2, 8}, {4, 4}, {8, 2},  // constant 16-wide
      {4, 2}, {2, 4},          // 8-wide points
  };
  const Scheme schemes[] = {Scheme::parse("1S"), Scheme::parse("3CCC"),
                            Scheme::parse("2SC3"), Scheme::parse("3SSS")};

  Dataset t({ColumnSpec::str("Machine"),
             ColumnSpec::integer("Total width"), ColumnSpec::real("1S"),
             ColumnSpec::real("3CCC"), ColumnSpec::real("2SC3"),
             ColumnSpec::real("3SSS"),
             ColumnSpec::real("2SC3 vs 3CCC", 1, "%")});
  for (const auto& [clusters, width] : shapes) {
    SimConfig sim = cfg.sim;
    sim.machine = MachineConfig::clustered(clusters, width);
    // One batch per machine shape: every scheme on every workload.
    const std::vector<double> avg =
        runners::average_ipc(schemes, sim, cfg.batch);
    const auto width_total =
        static_cast<std::int64_t>(sim.machine.total_issue_width());
    t.add_row({sim.machine.shape_label(), Cell{width_total}, avg[0], avg[1],
               avg[2], avg[3], percent_diff(avg[2], avg[1])});
  }
  return runners::one_section(
      "Ablation: machine shape (clusters x issue width)", std::move(t),
      "\nNote: on machines narrower than 16 issue slots the\n"
      "high-ILP profiles cannot reach their Table 1 IPCp, so\n"
      "compare schemes within a row, not across rows.\n");
}

const RegisterExperiment reg{{
    .id = "machine-shapes",
    .artifact = "extension",
    .description = "Scheme trade-off across (clusters x issue-width) "
                   "machine shapes.",
    .schema = {ParamKind::kBudget, ParamKind::kTimeslice,
               ParamKind::kWorkers, ParamKind::kStats},
    .sort_key = 230,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
