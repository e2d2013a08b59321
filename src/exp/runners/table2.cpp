// Table 2: the nine multiprogrammed workload configurations, annotated
// with each thread's measured single-thread IPC so the ILP labels can be
// checked against the simulated reality.
#include "exp/runners/common.hpp"

namespace cvmt {
namespace {

ExperimentResult run(const RunContext& ctx) {
  Dataset table({ColumnSpec::str("ILP Comb"), ColumnSpec::str("Thread 0"),
                 ColumnSpec::str("Thread 1"), ColumnSpec::str("Thread 2"),
                 ColumnSpec::str("Thread 3")});
  for (const Workload& w : table2_workloads())
    table.add_row({w.ilp_combo, w.benchmarks[0], w.benchmarks[1],
                   w.benchmarks[2], w.benchmarks[3]});
  ExperimentResult result = runners::one_section(
      "Table 2: Workload configurations", std::move(table));

  // Job i: Table 1 benchmark i alone with real memory.
  const auto& profiles = table1_profiles();
  std::vector<BatchJob> jobs;
  jobs.reserve(profiles.size());
  for (const BenchmarkProfile& p : profiles)
    jobs.push_back({Scheme::single_thread(), {p.name}, ctx.params.cfg.sim});
  const std::vector<double> ipc = run_batch_ipc(jobs, ctx.params.cfg.batch);

  Dataset detail({ColumnSpec::str("Workload"), ColumnSpec::integer("Thread"),
                  ColumnSpec::str("Benchmark"), ColumnSpec::str("ILP"),
                  ColumnSpec::real("IPCr (sim)")});
  for (const Workload& w : table2_workloads()) {
    for (int t = 0; t < 4; ++t) {
      const std::string& name = w.benchmarks[static_cast<std::size_t>(t)];
      for (std::size_t i = 0; i < profiles.size(); ++i)
        if (profiles[i].name == name)
          detail.add_row({w.ilp_combo, Cell{static_cast<std::int64_t>(t)},
                          name, std::string(1, to_char(profiles[i].ilp)),
                          ipc[i]});
    }
    detail.add_separator();
  }
  ResultSection s;
  s.title = "Per-thread detail";
  s.data = std::move(detail);
  result.sections.push_back(std::move(s));
  return result;
}

const RegisterExperiment reg{{
    .id = "table2",
    .artifact = "Table 2",
    .description = "Workload compositions with per-thread simulated IPC.",
    .schema = runners::sim_schema(),
    .sort_key = 20,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
