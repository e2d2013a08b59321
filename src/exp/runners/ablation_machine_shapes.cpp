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
  const char* schemes[] = {"1S", "3CCC", "2SC3", "3SSS"};

  Dataset t({ColumnSpec::str("Machine"),
             ColumnSpec::integer("Total width"), ColumnSpec::real("1S"),
             ColumnSpec::real("3CCC"), ColumnSpec::real("2SC3"),
             ColumnSpec::real("3SSS"),
             ColumnSpec::real("2SC3 vs 3CCC", 1, "%")});
  for (const auto& [clusters, width] : shapes) {
    const MachineConfig machine = MachineConfig::clustered(clusters, width);
    SimConfig sim = cfg.sim;
    sim.machine = machine;

    // One batch per machine shape: every scheme on every workload.
    const auto& wls = table2_workloads();
    std::vector<BatchJob> jobs;
    jobs.reserve(std::size(schemes) * wls.size());
    for (const char* s : schemes)
      for (const Workload& w : wls)
        jobs.push_back(make_job(Scheme::parse(s), w, sim));
    const std::vector<double> avg =
        group_averages(run_batch_ipc(jobs, cfg.batch), wls.size());

    std::vector<Cell> row{
        std::to_string(clusters) + "x" + std::to_string(width),
        Cell{static_cast<std::int64_t>(machine.total_issue_width())}};
    double csmt = 0.0, mixed = 0.0;
    for (std::size_t si = 0; si < std::size(schemes); ++si) {
      if (std::string(schemes[si]) == "3CCC") csmt = avg[si];
      if (std::string(schemes[si]) == "2SC3") mixed = avg[si];
      row.emplace_back(avg[si]);
    }
    row.emplace_back(percent_diff(mixed, csmt));
    t.add_row(std::move(row));
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
