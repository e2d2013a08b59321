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
  const char* schemes[] = {"1S", "3CCC", "2SC3", "3SSS"};

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

    const auto& wls = table2_workloads();
    std::vector<BatchJob> jobs;
    jobs.reserve(std::size(schemes) * wls.size());
    for (const char* s : schemes)
      for (const Workload& w : wls)
        jobs.push_back(make_job(Scheme::parse(s), w, sim));
    const std::vector<double> avg =
        group_averages(run_batch_ipc(jobs, cfg.batch), wls.size());

    std::string shape;
    if (desc.machine.heterogeneous) {
      for (int c = 0; c < desc.machine.num_clusters; ++c) {
        if (c) shape += '+';
        shape += std::to_string(desc.machine.cluster_issue(c));
      }
    } else {
      shape = std::to_string(desc.machine.num_clusters) + "x" +
              std::to_string(desc.machine.issue_per_cluster);
    }
    std::vector<Cell> row{std::string(name), std::move(shape),
                          std::string(to_string(desc.switch_policy))};
    for (std::size_t si = 0; si < std::size(schemes); ++si)
      row.emplace_back(avg[si]);
    row.emplace_back(percent_diff(avg[2], avg[0]));  // 2SC3 vs 1S
    t.add_row(std::move(row));
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
