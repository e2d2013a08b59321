// Smoke + relation tests of the experiment harness: every figure/table
// runner produces data with the paper's qualitative shape at reduced run
// lengths. (`cvmt run <id>` prints the full-size versions.)
#include <gtest/gtest.h>

#include <sstream>

#include "exp/report.hpp"

namespace cvmt {
namespace {

ExperimentConfig tiny() {
  ExperimentConfig cfg;
  cfg.sim.instruction_budget = 25'000;
  cfg.sim.timeslice_cycles = 5'000;
  return cfg;
}

TEST(Experiments, Table1RowsCoverAllBenchmarks) {
  const auto rows = run_table1(tiny());
  ASSERT_EQ(rows.size(), 12u);
  for (const auto& r : rows) {
    EXPECT_GT(r.sim_ipc_real, 0.0) << r.name;
    EXPECT_GE(r.sim_ipc_perfect, r.sim_ipc_real * 0.95) << r.name;
  }
  EXPECT_EQ(rows[0].name, "mcf");
  EXPECT_EQ(rows[0].ilp, 'L');
}

TEST(Experiments, Fig4ScalesWithThreads) {
  const auto rows = run_fig4(tiny());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].processor, "Single-thread");
  EXPECT_LT(rows[0].avg_ipc, rows[1].avg_ipc);
  EXPECT_LT(rows[1].avg_ipc, rows[2].avg_ipc);
  // Paper Fig 4: the 4-thread SMT processor gains ~61% over 2-thread.
  EXPECT_GT(rows[2].avg_ipc / rows[1].avg_ipc, 1.25);
}

TEST(Experiments, Fig5SweepHasPaperShape) {
  const auto rows = run_fig5();
  ASSERT_EQ(rows.size(), 7u);  // threads 2..8
  EXPECT_EQ(rows.front().threads, 2);
  EXPECT_EQ(rows.back().threads, 8);
  for (const auto& r : rows) {
    EXPECT_GT(r.smt.transistors, r.csmt_serial.transistors);
    EXPECT_GT(r.smt.delay, r.csmt_serial.delay);
  }
  // Parallel CSMT: flat-ish delay, exploding area.
  EXPECT_LT(rows.back().csmt_parallel.delay,
            rows.back().csmt_serial.delay);
  EXPECT_GT(rows.back().csmt_parallel.transistors,
            rows.back().csmt_serial.transistors * 10);
}

TEST(Experiments, Fig6SmtAlwaysAheadAndLlhhIsLarge) {
  const auto rows = run_fig6(tiny());
  ASSERT_EQ(rows.size(), 9u);
  double sum = 0.0, llll = 0.0, llhh = 0.0;
  for (const auto& r : rows) {
    EXPECT_GE(r.advantage_pct, -2.0) << r.workload;  // SMT >= CSMT
    sum += r.advantage_pct;
    if (r.workload == "LLLL") llll = r.advantage_pct;
    if (r.workload == "LLHH") llhh = r.advantage_pct;
  }
  const double avg = sum / 9.0;
  EXPECT_GT(avg, 5.0);       // paper: 27% average
  EXPECT_GT(llhh, llll);     // paper: LLHH shows the largest gap (58%)
}

TEST(Experiments, Fig9CoversAllSchemes) {
  const auto rows = run_fig9();
  ASSERT_EQ(rows.size(), 16u);
  EXPECT_EQ(rows.front().scheme, "C4");
  EXPECT_EQ(rows.back().scheme, "3SSS");
  for (const auto& r : rows) {
    EXPECT_GT(r.transistors, 0) << r.scheme;
    EXPECT_GT(r.gate_delay, 0.0) << r.scheme;
  }
}

TEST(Experiments, Fig10OrderingMatchesPaper) {
  const Fig10Result f = run_fig10(tiny());
  ASSERT_EQ(f.schemes.size(), 16u);
  ASSERT_EQ(f.workloads.size(), 9u);

  // Identical-selection schemes are cycle-exact equal.
  EXPECT_DOUBLE_EQ(f.average_of("C4"), f.average_of("3CCC"));
  EXPECT_DOUBLE_EQ(f.average_of("2SC3"), f.average_of("3SCC"));

  // Endpoints: 1S minimum, 3SSS maximum (paper §5.2).
  for (const auto& s : f.schemes) {
    if (s != "1S") {
      EXPECT_GE(f.average_of(s), f.average_of("1S") * 0.98) << s;
    }
    EXPECT_LE(f.average_of(s), f.average_of("3SSS") * 1.02) << s;
  }

  // Mixed schemes sit between 4-thread CSMT and 4-thread SMT.
  EXPECT_GT(f.average_of("2SC3"), f.average_of("3CCC"));
  EXPECT_LT(f.average_of("2SC3"), f.average_of("3SSS"));
  // Two-SMT-level schemes approach 3SSS.
  EXPECT_GT(f.average_of("3SSC"), f.average_of("2SC3") * 0.99);
  // 2SC is the weakest SMT-bearing 4-thread scheme: CSMT-merging two
  // SMT-merged group packets restricts merging (§5.2). The paper even
  // places it below 3CCC; our synthetic footprints keep the S-groups a
  // little stronger — documented as a deviation in EXPERIMENTS.md.
  for (const char* s : {"2SC3", "2CS", "3SSC", "2SS", "3SSS"})
    EXPECT_LT(f.average_of("2SC"), f.average_of(s)) << s;
}

TEST(Experiments, HeadlineRelationsHaveTheRightSign) {
  const Fig10Result f = run_fig10(tiny());
  const HeadlineRelations h = headline_relations(f);
  EXPECT_GT(h.sc3_vs_csmt_pct, 0.0);   // paper: +14%
  EXPECT_GT(h.sc3_vs_1s_pct, 10.0);    // paper: +45%
  EXPECT_LT(h.sc3_vs_smt4_pct, 0.0);   // paper: -11%
  EXPECT_GT(h.smt4_vs_1s_pct, 20.0);   // paper: +61%
}

TEST(Experiments, ParetoPointsCombineCostAndPerformance) {
  const Fig10Result f = run_fig10(tiny());
  const auto points = pareto_points(f, MachineConfig::vex4x4());
  ASSERT_EQ(points.size(), 16u);
  const auto find = [&](const char* name) {
    for (const auto& p : points)
      if (p.scheme == name) return p;
    ADD_FAILURE() << "missing " << name;
    return points.front();
  };
  // 2SC3: cost like 1S, performance well above (the paper's conclusion).
  const auto sc3 = find("2SC3");
  const auto s1 = find("1S");
  EXPECT_LT(sc3.transistors, s1.transistors + s1.transistors / 2);
  EXPECT_GT(sc3.avg_ipc, s1.avg_ipc * 1.1);
}

TEST(Experiments, RendersAllTables) {
  // Rendering smoke test: every table materialises with plausible shape.
  std::ostringstream os;
  render_table2().to_table().print(os);
  render_fig5(run_fig5()).write_csv(os);
  render_fig9(run_fig9()).to_table().print(os);
  EXPECT_FALSE(os.str().empty());
  EXPECT_NE(os.str().find("LLLL"), std::string::npos);
}

}  // namespace
}  // namespace cvmt
