// ExperimentRegistry: every experiment the driver and CI rely on is
// registered, and every registered experiment runs at smoke scale and
// produces non-empty, schema-consistent Dataset sections.
#include <gtest/gtest.h>

#include "exp/registry.hpp"
#include "support/check.hpp"

namespace cvmt {
namespace {

ExperimentParams tiny() {
  ExperimentParams p;
  p.cfg.sim.instruction_budget = 2'000;
  p.cfg.sim.timeslice_cycles = 1'000;
  p.cfg.sim.stats = StatsLevel::kFast;
  return p;
}

TEST(Registry, AllExpectedExperimentsAreRegistered) {
  const auto& registry = ExperimentRegistry::instance();
  for (const char* id :
       {"table1", "table2", "fig4", "fig5", "fig6", "fig9", "fig10",
        "fig11", "fig12", "8threads", "baselines", "design-choices",
        "machine-shapes", "miss-penalty", "scale", "merge-efficiency",
        "ablation_machine_files", "fuzz"}) {
    const Experiment* e = registry.find(id);
    ASSERT_NE(e, nullptr) << id;
    EXPECT_FALSE(e->description.empty()) << id;
    EXPECT_FALSE(e->artifact.empty()) << id;
  }
  EXPECT_EQ(registry.size(), 18u);
  EXPECT_EQ(registry.find("no-such-experiment"), nullptr);
}

TEST(Registry, OrderingIsStableAndPaperFirst) {
  const auto all = ExperimentRegistry::instance().all();
  ASSERT_GE(all.size(), 18u);
  EXPECT_EQ(all.front()->id, "table1");
  for (std::size_t i = 1; i < all.size(); ++i) {
    const bool ordered =
        all[i - 1]->sort_key < all[i]->sort_key ||
        (all[i - 1]->sort_key == all[i]->sort_key &&
         all[i - 1]->id < all[i]->id);
    EXPECT_TRUE(ordered) << all[i - 1]->id << " vs " << all[i]->id;
  }
}

TEST(Registry, DuplicateIdsRejected) {
  ExperimentRegistry registry;
  Experiment e;
  e.id = "x";
  e.run = [](const RunContext&) { return ExperimentResult{}; };
  registry.add(e);
  EXPECT_THROW(registry.add(e), CheckError);
  Experiment no_run;
  no_run.id = "y";
  EXPECT_THROW(registry.add(no_run), CheckError);
}

TEST(Registry, SchemaSummaryNamesKnobs) {
  const Experiment* fig10 = ExperimentRegistry::instance().find("fig10");
  ASSERT_NE(fig10, nullptr);
  const std::string summary = fig10->schema_summary();
  EXPECT_NE(summary.find("budget"), std::string::npos);
  EXPECT_NE(summary.find("schemes"), std::string::npos);
  EXPECT_TRUE(fig10->in_schema(ParamKind::kWorkloads));
  EXPECT_FALSE(
      ExperimentRegistry::instance().find("fig5")->in_schema(
          ParamKind::kBudget));

  // The resolved stats level is explicit in the schema surface: the
  // merge-efficiency diagnostic forces full stats and says so.
  const Experiment* me =
      ExperimentRegistry::instance().find("merge-efficiency");
  ASSERT_NE(me, nullptr);
  EXPECT_TRUE(me->forces_full_stats);
  EXPECT_NE(me->schema_summary().find("stats=full"), std::string::npos);
}

// The headline acceptance test of the experiment API: every registered
// experiment runs under smoke-scale parameters and yields non-empty,
// schema-consistent sections. (Dataset::add_row enforces cell/column
// consistency at insertion; the JSON rendering must carry every data row
// and every declared column.)
TEST(Registry, EveryExperimentRunsFastAndYieldsConsistentDatasets) {
  const ExperimentParams params = tiny();
  for (const Experiment* e : ExperimentRegistry::instance().all()) {
    SCOPED_TRACE(e->id);
    const ExperimentResult result = e->run(RunContext{params});
    EXPECT_TRUE(result.ok);
    ASSERT_FALSE(result.sections.empty());
    bool has_data = false;
    for (const ResultSection& s : result.sections) {
      if (s.data.num_cols() == 0) continue;
      has_data = true;
      EXPECT_GT(s.data.num_rows(), 0u) << s.title;
      for (const ColumnSpec& c : s.data.columns())
        EXPECT_FALSE(c.name.empty()) << s.title;
      const JsonValue json = s.data.to_json();
      EXPECT_EQ(json.get("rows").size(), s.data.num_rows()) << s.title;
      EXPECT_EQ(json.get("columns").size(), s.data.num_cols()) << s.title;
    }
    EXPECT_TRUE(has_data);
  }
}

}  // namespace
}  // namespace cvmt
