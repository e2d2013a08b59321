// Rendering tests: every report table materialises the right headers,
// rows and formatted cells from synthetic experiment data (no simulation).
#include <gtest/gtest.h>

#include <sstream>

#include "exp/report.hpp"

namespace cvmt {
namespace {

std::string render(const Dataset& d) {
  std::ostringstream os;
  d.to_table().print(os);
  return os.str();
}

TEST(Report, Table1RowsAndTargets) {
  std::vector<Table1Row> rows = {
      {"mcf", 'L', 0.96, 1.34, 0.94, 1.33},
      {"idct", 'H', 4.79, 5.27, 4.70, 5.20},
  };
  const std::string out = render(render_table1(rows));
  EXPECT_NE(out.find("Benchmark"), std::string::npos);
  EXPECT_NE(out.find("mcf"), std::string::npos);
  EXPECT_NE(out.find("0.96"), std::string::npos);
  EXPECT_NE(out.find("5.20"), std::string::npos);
}

TEST(Report, Table2ListsAllWorkloads) {
  const std::string out = render(render_table2());
  for (const Workload& w : table2_workloads())
    EXPECT_NE(out.find(w.ilp_combo), std::string::npos) << w.ilp_combo;
  EXPECT_NE(out.find("colorspace"), std::string::npos);
}

TEST(Report, Fig4Rows) {
  const std::string out = render(render_fig4(
      {{"Single-thread", 2.14}, {"2-Thread", 3.74}, {"4-Thread", 5.73}}));
  EXPECT_NE(out.find("4-Thread"), std::string::npos);
  EXPECT_NE(out.find("5.73"), std::string::npos);
}

TEST(Report, Fig5FormatsGroupedTransistors) {
  Fig5Row row;
  row.threads = 8;
  row.csmt_serial = {878, 37.0};
  row.csmt_parallel = {86'774, 12.0};
  row.smt = {35'976, 81.0};
  const std::string out = render(render_fig5({row}));
  EXPECT_NE(out.find("86,774"), std::string::npos);
  EXPECT_NE(out.find("81.0"), std::string::npos);
}

TEST(Report, Fig6AppendsAverageRow) {
  std::vector<Fig6Row> rows = {{"LLLL", 3.2, 2.9, 10.0},
                               {"LLHH", 6.3, 5.4, 30.0}};
  const std::string out = render(render_fig6(rows));
  EXPECT_NE(out.find("Average"), std::string::npos);
  EXPECT_NE(out.find("20.0"), std::string::npos);  // (10+30)/2
}

TEST(Report, Fig10MatrixHasSchemeColumnsAndAverage) {
  Fig10Result f;
  f.schemes = {"1S", "3SSS"};
  f.workloads = {"LLLL", "HHHH"};
  f.ipc = {{1.7, 3.2}, {6.9, 8.8}};
  f.average = {4.3, 6.0};
  const std::string out = render(render_fig10(f));
  EXPECT_NE(out.find("3SSS"), std::string::npos);
  EXPECT_NE(out.find("Average"), std::string::npos);
  EXPECT_NE(out.find("8.80"), std::string::npos);
}

TEST(Report, Fig10LookupHelpers) {
  Fig10Result f;
  f.schemes = {"1S", "3SSS"};
  f.workloads = {"LLLL"};
  f.ipc = {{1.7, 3.2}};
  f.average = {1.7, 3.2};
  EXPECT_DOUBLE_EQ(f.ipc_of("3SSS", "LLLL"), 3.2);
  EXPECT_DOUBLE_EQ(f.average_of("1S"), 1.7);
  EXPECT_THROW((void)f.average_of("2SC3"), CheckError);
  EXPECT_THROW((void)f.ipc_of("1S", "MMMM"), CheckError);
}

TEST(Report, ParetoTable) {
  const std::string out = render(render_pareto(
      {{"2SC3", 5.24, 4'384, 19.0}, {"3SSS", 5.98, 13'128, 40.0}}));
  EXPECT_NE(out.find("4,384"), std::string::npos);
  EXPECT_NE(out.find("40.0"), std::string::npos);
}

TEST(Report, HeadlinesMentionPaperNumbers) {
  std::ostringstream os;
  print_headlines(os, {14.0, 45.0, -11.0, 61.0});
  EXPECT_NE(os.str().find("paper: +14%"), std::string::npos);
  EXPECT_NE(os.str().find("paper: -11%"), std::string::npos);
}

}  // namespace
}  // namespace cvmt
