// Fig 12: average performance vs merge-control gate delays for all
// schemes (scatter points printed as rows, sorted by delay).
#include "exp/runners/common.hpp"

namespace cvmt {
namespace {

ExperimentResult run(const RunContext& ctx) {
  return runners::one_section(
      "Figure 12: performance vs gate delays",
      runners::pareto_table(ctx, [](const SchemeCost& a, const SchemeCost& b) {
        return a.gate_delay < b.gate_delay;
      }));
}

const RegisterExperiment reg{{
    .id = "fig12",
    .artifact = "Figure 12",
    .description = "Pareto view: average IPC vs merge-control gate-delay "
                   "cost.",
    .schema = [] {
      auto s = runners::sim_schema();
      s.push_back(ParamKind::kSchemes);
      s.push_back(ParamKind::kWorkloads);
      return s;
    }(),
    .sort_key = 90,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
