// Fig 6: per-workload performance advantage of a 4-thread SMT processor
// (3SSS) over a 4-thread CSMT processor (3CCC). The paper reports a 27%
// average with a 58% peak on LLHH.
#include "exp/runners/common.hpp"

namespace cvmt {
namespace {

ExperimentResult run(const RunContext& ctx) {
  const std::vector<Workload> workloads =
      runners::table2_rows(ctx.params.workloads);
  const Scheme smt = Scheme::parse("3SSS");
  const Scheme csmt = Scheme::parse("3CCC");

  // Jobs 2w / 2w+1: workload w under SMT / CSMT.
  std::vector<BatchJob> jobs;
  jobs.reserve(workloads.size() * 2);
  for (const Workload& w : workloads) {
    jobs.push_back(make_job(smt, w, ctx.params.cfg.sim));
    jobs.push_back(make_job(csmt, w, ctx.params.cfg.sim));
  }
  const std::vector<double> ipc = run_batch_ipc(jobs, ctx.params.cfg.batch);

  Dataset t({ColumnSpec::str("Workload"), ColumnSpec::real("SMT IPC"),
             ColumnSpec::real("CSMT IPC"),
             ColumnSpec::real("SMT advantage %", 1)});
  double sum = 0.0;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    const double advantage = percent_diff(ipc[2 * w], ipc[2 * w + 1]);
    t.add_row({workloads[w].ilp_combo, ipc[2 * w], ipc[2 * w + 1],
               advantage});
    sum += advantage;
  }
  t.add_separator();
  t.add_row({std::string("Average"), std::monostate{}, std::monostate{},
             sum / static_cast<double>(workloads.size())});
  return runners::one_section(
      "Figure 6: SMT performance advantage over CSMT (4 threads)",
      std::move(t));
}

const RegisterExperiment reg{{
    .id = "fig6",
    .artifact = "Figure 6",
    .description = "4-thread SMT (3SSS) vs 4-thread CSMT (3CCC) per "
                   "workload.",
    .schema = [] {
      auto s = runners::sim_schema();
      s.push_back(ParamKind::kWorkloads);
      return s;
    }(),
    .sort_key = 50,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
