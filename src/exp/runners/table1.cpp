// Table 1: the benchmark set with single-thread IPC under real memory
// (IPCr) and perfect memory (IPCp), paper targets side by side.
#include "exp/runners/common.hpp"

namespace cvmt {
namespace {

ExperimentResult run(const RunContext& ctx) {
  const ExperimentConfig& cfg = ctx.params.cfg;
  const auto& profiles = table1_profiles();
  SimConfig perfect = cfg.sim;
  perfect.mem.perfect = true;

  // Jobs 2i / 2i+1: benchmark i with real / perfect memory.
  std::vector<BatchJob> jobs;
  jobs.reserve(profiles.size() * 2);
  for (const BenchmarkProfile& p : profiles) {
    jobs.push_back({Scheme::single_thread(), {p.name}, cfg.sim});
    jobs.push_back({Scheme::single_thread(), {p.name}, perfect});
  }
  const std::vector<double> ipc = run_batch_ipc(jobs, cfg.batch);

  Dataset t({ColumnSpec::str("Benchmark"), ColumnSpec::str("ILP"),
             ColumnSpec::real("IPCr(paper)"), ColumnSpec::real("IPCr(sim)"),
             ColumnSpec::real("IPCp(paper)"),
             ColumnSpec::real("IPCp(sim)")});
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const BenchmarkProfile& p = profiles[i];
    t.add_row({p.name, std::string(1, to_char(p.ilp)), p.target_ipc_real,
               ipc[2 * i], p.target_ipc_perfect, ipc[2 * i + 1]});
  }
  return runners::one_section(
      "Table 1: Benchmarks (single-thread IPCr / IPCp, 4-cluster 4-issue "
      "VEX)",
      std::move(t), /*note=*/{},
      "instruction budget per thread: " +
          std::to_string(cfg.sim.instruction_budget) + "\n\n");
}

const RegisterExperiment reg{{
    .id = "table1",
    .artifact = "Table 1",
    .description = "Single-thread IPCr/IPCp calibration of the 12 "
                   "benchmark profiles.",
    .schema = runners::sim_schema(),
    .sort_key = 10,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
