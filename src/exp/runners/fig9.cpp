// Fig 9: merging-hardware cost (gate delays and transistor count) for the
// 16 four-thread schemes, in the paper's presentation order.
#include "cost/scheme_cost.hpp"
#include "exp/runners/common.hpp"

namespace cvmt {
namespace {

ExperimentResult run(const RunContext& ctx) {
  Dataset t({ColumnSpec::str("Scheme"), ColumnSpec::real("Gate delays", 1),
             ColumnSpec::integer("Transistors", /*grouped=*/true)});
  for (const Scheme& s : Scheme::paper_schemes_4t()) {
    const SchemeCost c = scheme_cost(s, ctx.params.cfg.sim.machine);
    t.add_row({s.name(), c.gate_delay, Cell{c.transistors}});
  }
  return runners::one_section(
      "Figure 9: merging hardware cost per scheme", std::move(t),
      "\nKey relations (paper Sec. 4.2):\n"
      "  * CSMT-only schemes (C4, 3CCC, 2CC) cheapest overall\n"
      "  * one-SMT-block schemes (2SC3, 3SCC, ...) cost ~1S\n"
      "  * 2SS / 3SSS are the most expensive\n"
      "  * early-SMT schemes hide routing delay (2SC3 ~ 1S)\n");
}

const RegisterExperiment reg{{
    .id = "fig9",
    .artifact = "Figure 9",
    .description = "Merge-control cost of the 16 four-thread schemes "
                   "(cost model only).",
    .schema = {ParamKind::kMachine},
    .sort_key = 60,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
