// Rendering of typed experiment rows into generic Datasets. The typed row
// structs (exp/experiments.hpp) are the computation currency; a Dataset is
// what crosses the experiment API boundary (registry runners, the cvmt
// driver) and what every output format — aligned table, CSV, JSON — is
// derived from. Table text is byte-identical to the historical
// per-figure TableWriter renderers.
#pragma once

#include <iosfwd>

#include "exp/experiments.hpp"
#include "support/dataset.hpp"

namespace cvmt {

/// Table 1: benchmarks with paper vs simulated IPCr / IPCp.
[[nodiscard]] Dataset render_table1(const std::vector<Table1Row>& rows);

/// Table 2: workload compositions.
[[nodiscard]] Dataset render_table2();

/// Fig 4: average SMT IPC per processor configuration.
[[nodiscard]] Dataset render_fig4(const std::vector<Fig4Row>& rows);

/// Fig 5: merge-control cost vs thread count.
[[nodiscard]] Dataset render_fig5(const std::vector<Fig5Row>& rows);

/// Fig 6: SMT advantage over CSMT per workload (with average row).
[[nodiscard]] Dataset render_fig6(const std::vector<Fig6Row>& rows);

/// Fig 9: per-scheme gate delays and transistor counts.
[[nodiscard]] Dataset render_fig9(const std::vector<Fig9Row>& rows);

/// Fig 10: IPC per workload for every scheme (plus Average row).
[[nodiscard]] Dataset render_fig10(const Fig10Result& result);

/// Fig 11/12: performance vs transistors / gate delays.
[[nodiscard]] Dataset render_pareto(const std::vector<ParetoPoint>& points);

/// Per-merge-block attempt/reject statistics, one row per block in
/// preorder, labelled with the block's canonical sub-scheme (e.g.
/// "S(0,1)"). Requires a StatsLevel::kFull run to carry counts.
[[nodiscard]] Dataset render_merge_nodes(
    const std::vector<MergeNodeStats>& nodes);

/// The headline percentages as data (relation, simulated %, paper %).
[[nodiscard]] Dataset render_headlines(const HeadlineRelations& h);

/// Prints the conclusion's headline percentages as prose.
void print_headlines(std::ostream& os, const HeadlineRelations& h);

}  // namespace cvmt
