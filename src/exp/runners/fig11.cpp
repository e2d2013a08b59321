// Fig 11: average performance vs transistors incurred for all schemes
// (scatter points printed as rows, sorted by transistor count).
#include "exp/runners/common.hpp"

namespace cvmt {
namespace {

ExperimentResult run(const RunContext& ctx) {
  return runners::one_section(
      "Figure 11: performance vs transistors incurred",
      runners::pareto_table(ctx, [](const SchemeCost& a, const SchemeCost& b) {
        return a.transistors < b.transistors;
      }));
}

const RegisterExperiment reg{{
    .id = "fig11",
    .artifact = "Figure 11",
    .description = "Pareto view: average IPC vs merge-control transistor "
                   "cost.",
    .schema = [] {
      auto s = runners::sim_schema();
      s.push_back(ParamKind::kSchemes);
      s.push_back(ParamKind::kWorkloads);
      return s;
    }(),
    .sort_key = 80,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
