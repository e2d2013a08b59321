// Fig 4: average IPC of the single-thread, 2-thread SMT and 4-thread SMT
// processors over the Table 2 workloads. The paper reports a 61%
// advantage of 4-thread over 2-thread SMT.
#include "exp/runners/common.hpp"
#include "support/string_util.hpp"

namespace cvmt {
namespace {

ExperimentResult run(const RunContext& ctx) {
  const Scheme processors[] = {Scheme::single_thread(), Scheme::parse("1S"),
                               Scheme::parse("3SSS")};
  const std::vector<double> avg = runners::average_ipc(
      processors, ctx.params.cfg.sim, ctx.params.cfg.batch);

  Dataset t({ColumnSpec::str("Processor"), ColumnSpec::real("Avg IPC")});
  t.add_row({std::string("Single-thread"), avg[0]});
  t.add_row({std::string("2-Thread"), avg[1]});
  t.add_row({std::string("4-Thread"), avg[2]});
  std::string note;
  if (avg[1] > 0.0)
    note = "\n4-thread vs 2-thread gain: " +
           format_fixed(percent_diff(avg[2], avg[1]), 1) + "% (paper: 61%)\n";
  return runners::one_section("Figure 4: SMT performance vs hardware threads",
                              std::move(t), std::move(note));
}

const RegisterExperiment reg{{
    .id = "fig4",
    .artifact = "Figure 4",
    .description = "SMT average IPC scaling over 1/2/4 hardware threads.",
    .schema = runners::sim_schema(),
    .sort_key = 30,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
