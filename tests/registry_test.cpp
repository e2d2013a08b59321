// ExperimentRegistry: every experiment the driver and CI rely on is
// registered, and every registered experiment runs at smoke scale,
// produces non-empty, schema-consistent Dataset sections, and renders to
// pinned bytes in every output format.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <sstream>

#include "exp/driver.hpp"
#include "exp/registry.hpp"
#include "store/result_store.hpp"
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
        "ablation_machine_files"}) {
    const Experiment* e = registry.find(id);
    ASSERT_NE(e, nullptr) << id;
    EXPECT_FALSE(e->description.empty()) << id;
    EXPECT_FALSE(e->artifact.empty()) << id;
  }
  EXPECT_EQ(registry.size(), 17u);
  EXPECT_EQ(registry.find("no-such-experiment"), nullptr);
}

TEST(Registry, OrderingIsStableAndPaperFirst) {
  const auto all = ExperimentRegistry::instance().all();
  ASSERT_GE(all.size(), 17u);
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

/// FNV-1a of `print_result` at tiny() for every experiment, as table,
/// CSV and JSON. These pin the output bytes of all 17 experiments. When an
/// output change is intended, copy the new digests from the failure
/// messages here and say so in the change log.
struct PinnedDigests {
  const char* id;
  std::uint64_t fnv1a[3];  ///< table, csv, json
};
constexpr PinnedDigests kPinnedDigests[] = {
    {"table1", {0x2d418d772983fa76, 0xb0fe3284dce668da, 0xb55255799fe9e514}},
    {"table2", {0xcfa9c32d1593b05f, 0xd563193b2e829a50, 0x82744b8ded72f5d0}},
    {"fig4", {0x850ddc09b9eb3783, 0x082207efec2c2131, 0x53a497d2be367f4f}},
    {"fig5", {0x9a4fe17af2696072, 0x90cf8aa56a536f24, 0xad01ec84a0ff4cbf}},
    {"fig6", {0xa42a30fdcdb306c4, 0x315b930b12ea6b2c, 0x333dc4c2a16b158c}},
    {"fig9", {0xeca3906a71e9bfda, 0x2024ff66a8fa8576, 0xd95484d17a09f771}},
    {"fig10", {0x0001442d331dfcb4, 0x5939678f7b448c91, 0xdd8e8d02ba9282a3}},
    {"fig11", {0x642f357f6c0ec9da, 0xb126941412cb1778, 0x14b2c57a5deadb07}},
    {"fig12", {0x861e8ee512b8af54, 0x8960fb379c42fc49, 0x7e374af311fd5183}},
    {"8threads", {0xea6c69e8f977d895, 0x62d6b48de1e74e75, 0x94da327810a26982}},
    {"baselines", {0x79adc1ce68e58085, 0xd4e9ba8dfbc20e09, 0xa001ec2266f7a90f}},
    {"design-choices",
     {0xcfe30927719cbdf1, 0xcf53635fb68cc0bf, 0x811450ce696face2}},
    {"machine-shapes",
     {0xe809e616af380355, 0x7d663ca10e8a3266, 0x93712e122133831c}},
    {"ablation_machine_files",
     {0xfa431f535e75632b, 0x0c84330d8cf75b61, 0xd0541bdfd39d87bd}},
    {"miss-penalty",
     {0xbcaa455e28428386, 0x0277869e5b57b32b, 0xd22a72fa56d563fa}},
    {"scale", {0xa236273b2c156c0e, 0x00c99a53bd957176, 0x530f23bf4c76d60d}},
    {"merge-efficiency",
     {0xe6e09ac84f179832, 0x0d68f6665546d654, 0x77c0235dc2a7c533}},
};

// The headline acceptance test of the experiment API: every registered
// experiment runs under smoke-scale parameters and yields non-empty,
// schema-consistent sections. (Dataset::add_row enforces cell/column
// consistency at insertion; the JSON rendering must carry every data row
// and every declared column.) Its table, CSV and JSON renderings must
// hash to kPinnedDigests.
TEST(Registry, EveryExperimentRunsFastAndYieldsConsistentDatasets) {
  const ExperimentParams params = tiny();
  std::size_t pinned = 0;
  for (const Experiment* e : ExperimentRegistry::instance().all()) {
    SCOPED_TRACE(e->id);
    const ExperimentResult result = e->run(RunContext{params});
    const PinnedDigests* want = nullptr;
    for (const PinnedDigests& d : kPinnedDigests)
      if (e->id == d.id) want = &d;
    pinned += want != nullptr;
    for (const OutputFormat format :
         {OutputFormat::kTable, OutputFormat::kCsv, OutputFormat::kJson}) {
      std::ostringstream os;
      print_result(os, *e, params, result, format);
      const std::uint64_t got = fnv1a64(os.str());
      char digest[19];
      std::snprintf(digest, sizeof digest, "0x%016llx",
                    static_cast<unsigned long long>(got));
      if (want == nullptr) {
        ADD_FAILURE() << e->id << " " << to_string(format)
                      << ": no pinned digest; the output hashes to "
                      << digest;
        continue;
      }
      EXPECT_EQ(got, want->fnv1a[static_cast<std::size_t>(format)])
          << e->id << " " << to_string(format)
          << ": output bytes changed; they now hash to " << digest;
    }
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
  EXPECT_EQ(pinned, std::size(kPinnedDigests));
}

}  // namespace
}  // namespace cvmt
