#include "exp/report.hpp"

#include <ostream>

#include "support/string_util.hpp"

namespace cvmt {
namespace {
std::string fx(double v, int d = 2) { return format_fixed(v, d); }

Cell i64(std::uint64_t v) {
  return Cell{static_cast<std::int64_t>(v)};
}

}  // namespace

Dataset render_table1(const std::vector<Table1Row>& rows) {
  Dataset d({ColumnSpec::str("Benchmark"), ColumnSpec::str("ILP"),
             ColumnSpec::real("IPCr(paper)"), ColumnSpec::real("IPCr(sim)"),
             ColumnSpec::real("IPCp(paper)"),
             ColumnSpec::real("IPCp(sim)")});
  for (const auto& r : rows)
    d.add_row({r.name, std::string(1, r.ilp), r.paper_ipc_real,
               r.sim_ipc_real, r.paper_ipc_perfect, r.sim_ipc_perfect});
  return d;
}

Dataset render_table2() {
  Dataset d({ColumnSpec::str("ILP Comb"), ColumnSpec::str("Thread 0"),
             ColumnSpec::str("Thread 1"), ColumnSpec::str("Thread 2"),
             ColumnSpec::str("Thread 3")});
  for (const Workload& w : table2_workloads())
    d.add_row({w.ilp_combo, w.benchmarks[0], w.benchmarks[1],
               w.benchmarks[2], w.benchmarks[3]});
  return d;
}

Dataset render_fig4(const std::vector<Fig4Row>& rows) {
  Dataset d({ColumnSpec::str("Processor"), ColumnSpec::real("Avg IPC")});
  for (const auto& r : rows) d.add_row({r.processor, r.avg_ipc});
  return d;
}

Dataset render_fig5(const std::vector<Fig5Row>& rows) {
  Dataset d({ColumnSpec::integer("Threads"),
             ColumnSpec::integer("CSMT SL trans", /*grouped=*/true),
             ColumnSpec::integer("CSMT PL trans", /*grouped=*/true),
             ColumnSpec::integer("SMT trans", /*grouped=*/true),
             ColumnSpec::real("CSMT SL delay", 1),
             ColumnSpec::real("CSMT PL delay", 1),
             ColumnSpec::real("SMT delay", 1)});
  for (const auto& r : rows)
    d.add_row({Cell{static_cast<std::int64_t>(r.threads)},
               Cell{r.csmt_serial.transistors},
               Cell{r.csmt_parallel.transistors}, Cell{r.smt.transistors},
               r.csmt_serial.delay, r.csmt_parallel.delay, r.smt.delay});
  return d;
}

Dataset render_fig6(const std::vector<Fig6Row>& rows) {
  Dataset d({ColumnSpec::str("Workload"), ColumnSpec::real("SMT IPC"),
             ColumnSpec::real("CSMT IPC"),
             ColumnSpec::real("SMT advantage %", 1)});
  double sum = 0.0;
  for (const auto& r : rows) {
    d.add_row({r.workload, r.smt_ipc, r.csmt_ipc, r.advantage_pct});
    sum += r.advantage_pct;
  }
  d.add_separator();
  d.add_row({std::string("Average"), std::monostate{}, std::monostate{},
             sum / static_cast<double>(rows.size())});
  return d;
}

Dataset render_fig9(const std::vector<Fig9Row>& rows) {
  Dataset d({ColumnSpec::str("Scheme"), ColumnSpec::real("Gate delays", 1),
             ColumnSpec::integer("Transistors", /*grouped=*/true)});
  for (const auto& r : rows)
    d.add_row({r.scheme, r.gate_delay, Cell{r.transistors}});
  return d;
}

Dataset render_fig10(const Fig10Result& result) {
  std::vector<ColumnSpec> columns{ColumnSpec::str("Workload")};
  for (const auto& s : result.schemes) columns.push_back(ColumnSpec::real(s));
  Dataset d(std::move(columns));
  for (std::size_t w = 0; w < result.workloads.size(); ++w) {
    std::vector<Cell> row{result.workloads[w]};
    for (double v : result.ipc[w]) row.emplace_back(v);
    d.add_row(std::move(row));
  }
  d.add_separator();
  std::vector<Cell> avg{std::string("Average")};
  for (double v : result.average) avg.emplace_back(v);
  d.add_row(std::move(avg));
  return d;
}

Dataset render_pareto(const std::vector<ParetoPoint>& points) {
  Dataset d({ColumnSpec::str("Scheme"), ColumnSpec::real("Avg IPC"),
             ColumnSpec::integer("Transistors", /*grouped=*/true),
             ColumnSpec::real("Gate delays", 1)});
  for (const auto& p : points)
    d.add_row({p.scheme, p.avg_ipc, Cell{p.transistors}, p.gate_delay});
  return d;
}

Dataset render_merge_nodes(const std::vector<MergeNodeStats>& nodes) {
  Dataset d({ColumnSpec::str("Sub-scheme"), ColumnSpec::str("Kind"),
             ColumnSpec::integer("Attempts", /*grouped=*/true),
             ColumnSpec::integer("Rejects", /*grouped=*/true),
             ColumnSpec::real("Reject %", 1)});
  for (const auto& n : nodes)
    d.add_row({n.label, std::string(1, to_char(n.kind)), i64(n.attempts),
               i64(n.rejects), 100.0 * n.reject_rate()});
  return d;
}

Dataset render_headlines(const HeadlineRelations& h) {
  Dataset d({ColumnSpec::str("Relation"), ColumnSpec::real("Simulated %", 1),
             ColumnSpec::real("Paper %", 0)});
  d.add_row({std::string("2SC3 vs 3CCC"), h.sc3_vs_csmt_pct, 14.0});
  d.add_row({std::string("2SC3 vs 1S"), h.sc3_vs_1s_pct, 45.0});
  d.add_row({std::string("2SC3 vs 3SSS"), h.sc3_vs_smt4_pct, -11.0});
  d.add_row({std::string("3SSS vs 1S"), h.smt4_vs_1s_pct, 61.0});
  return d;
}

void print_headlines(std::ostream& os, const HeadlineRelations& h) {
  os << "2SC3 vs 4-thread CSMT (3CCC): " << fx(h.sc3_vs_csmt_pct, 1)
     << "% (paper: +14%)\n"
     << "2SC3 vs 2-thread SMT (1S):    " << fx(h.sc3_vs_1s_pct, 1)
     << "% (paper: +45%)\n"
     << "2SC3 vs 4-thread SMT (3SSS):  " << fx(h.sc3_vs_smt4_pct, 1)
     << "% (paper: -11%)\n"
     << "3SSS vs 1S:                   " << fx(h.smt4_vs_1s_pct, 1)
     << "% (paper's Fig 4 trend: +61% over 2-thread)\n";
}

}  // namespace cvmt
