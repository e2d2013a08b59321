// Fig 10: IPC of every merging scheme on every Table 2 workload, plus the
// workload average, the paper's grouped legend view and the conclusion's
// headline relations. Honours --schemes/--workloads filters (the grouped
// and headline sections need the full paper sets and are skipped under a
// filter).
#include "exp/runners/common.hpp"
#include "support/check.hpp"
#include "support/string_util.hpp"

namespace cvmt {
namespace {

/// The paper's legend groups, in its bottom-to-top order.
const std::vector<std::vector<std::string>>& legend_groups() {
  static const std::vector<std::vector<std::string>> kGroups = {
      {"1S"},
      {"3CCC", "C4"},
      {"2CC"},
      {"2CS"},
      {"2SC3", "2C3S", "3CCS", "3CSC", "3SCC"},
      {"3CSS", "3SSC", "3SCS"},
      {"2SC"},
      {"2SS"},
      {"3SSS"},
  };
  return kGroups;
}

/// The headline comparisons of the paper's conclusion: `a` vs `b` in
/// percent, with the paper's value and the prose line around it.
struct Relation {
  const char* label;
  const char* a;
  const char* b;
  double paper_pct;
  const char* prose;
  const char* paper_prose;
};
constexpr Relation kRelations[] = {
    {"2SC3 vs 3CCC", "2SC3", "3CCC", 14.0,
     "2SC3 vs 4-thread CSMT (3CCC): ", "% (paper: +14%)\n"},
    {"2SC3 vs 1S", "2SC3", "1S", 45.0, "2SC3 vs 2-thread SMT (1S):    ",
     "% (paper: +45%)\n"},
    {"2SC3 vs 3SSS", "2SC3", "3SSS", -11.0, "2SC3 vs 4-thread SMT (3SSS):  ",
     "% (paper: -11%)\n"},
    {"3SSS vs 1S", "3SSS", "1S", 61.0, "3SSS vs 1S:                   ",
     "% (paper's Fig 4 trend: +61% over 2-thread)\n"},
};

ExperimentResult run(const RunContext& ctx) {
  const runners::Fig10Grid g = runners::fig10_grid(ctx);

  std::vector<ColumnSpec> columns{ColumnSpec::str("Workload")};
  for (const Scheme& s : g.schemes)
    columns.push_back(ColumnSpec::real(s.name()));
  Dataset grid(std::move(columns));
  for (std::size_t w = 0; w < g.workloads.size(); ++w) {
    std::vector<Cell> row{g.workloads[w].ilp_combo};
    for (std::size_t s = 0; s < g.schemes.size(); ++s)
      row.emplace_back(g.ipc[w * g.schemes.size() + s]);
    grid.add_row(std::move(row));
  }
  grid.add_separator();
  std::vector<Cell> avg_row{std::string("Average")};
  for (double v : g.average) avg_row.emplace_back(v);
  grid.add_row(std::move(avg_row));

  ExperimentResult result = runners::one_section(
      "Figure 10: merging schemes performance (IPC)", std::move(grid));
  if (!ctx.params.schemes.empty() || !ctx.params.workloads.empty() ||
      runners::partial_grid(ctx))
    return result;

  const auto average_of = [&](std::string_view name) {
    for (std::size_t s = 0; s < g.schemes.size(); ++s)
      if (g.schemes[s].name() == name) return g.average[s];
    CVMT_CHECK_MSG(false, "unknown scheme: " + std::string(name));
    __builtin_unreachable();
  };

  // Grouped view as in the paper's legend.
  Dataset grouped({ColumnSpec::str("Group"), ColumnSpec::real("Avg IPC")});
  for (const auto& group : legend_groups()) {
    double sum = 0.0;
    std::string label;
    for (const auto& s : group) {
      sum += average_of(s);
      label += (label.empty() ? "" : ",") + s;
    }
    grouped.add_row({std::move(label),
                     sum / static_cast<double>(group.size())});
  }
  {
    ResultSection s;
    s.title = "Grouped (paper legend)";
    s.data = std::move(grouped);
    result.sections.push_back(std::move(s));
  }

  Dataset headlines({ColumnSpec::str("Relation"),
                     ColumnSpec::real("Simulated %", 1),
                     ColumnSpec::real("Paper %", 0)});
  std::string prose;
  for (const Relation& r : kRelations) {
    const double pct = percent_diff(average_of(r.a), average_of(r.b));
    headlines.add_row({std::string(r.label), pct, r.paper_pct});
    prose += r.prose + format_fixed(pct, 1) + r.paper_prose;
  }
  ResultSection s;
  s.title = "Headline relations";
  s.data = std::move(headlines);
  s.note = std::move(prose);
  s.text_only = true;
  result.sections.push_back(std::move(s));
  return result;
}

const RegisterExperiment reg{{
    .id = "fig10",
    .artifact = "Figure 10",
    .description = "The full 16-scheme x 9-workload IPC grid with legend "
                   "groups and headline relations.",
    .schema = [] {
      auto s = runners::sim_schema();
      s.push_back(ParamKind::kSchemes);
      s.push_back(ParamKind::kWorkloads);
      return s;
    }(),
    .sort_key = 70,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
