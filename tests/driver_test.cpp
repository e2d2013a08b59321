// The cvmt driver: output formats, parameter resolution and the
// golden-stability contract — `cvmt run fig10 --format=json` is
// byte-identical for any batch-runner worker count under fixed seeds.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/driver.hpp"
#include "isa/machine_file.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace cvmt {
namespace {

ExperimentParams tiny(unsigned workers) {
  ExperimentParams p;
  p.cfg.sim.instruction_budget = 10'000;
  p.cfg.sim.timeslice_cycles = 2'500;
  p.cfg.batch.workers = workers;
  return p;
}

const Experiment& get(const char* id) {
  const Experiment* e = ExperimentRegistry::instance().find(id);
  CVMT_CHECK_MSG(e != nullptr, std::string("missing experiment: ") + id);
  return *e;
}

// The determinism contract at the new API boundary: the batch runner's
// results are bit-identical for any worker count, and the JSON emitter
// deliberately excludes the worker count, so the rendered bytes match.
TEST(Driver, Fig10JsonIsByteIdenticalAcrossWorkerCounts) {
  const Experiment& fig10 = get("fig10");
  const std::string serial =
      run_to_string(fig10, tiny(1), OutputFormat::kJson);
  const std::string parallel =
      run_to_string(fig10, tiny(8), OutputFormat::kJson);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);  // byte-identical, workers=1 vs workers=8
  // And the bytes are valid JSON with the expected shape.
  const JsonValue v = JsonValue::parse(serial);
  EXPECT_EQ(v.get("id").as_string(), "fig10");
  EXPECT_TRUE(v.get("ok").as_bool());
  EXPECT_EQ(v.get("params").find("workers"), nullptr);
  EXPECT_GE(v.get("sections").size(), 3u);
}

TEST(Driver, TableAndCsvAreAlsoWorkerInvariant) {
  const Experiment& fig4 = get("fig4");
  EXPECT_EQ(run_to_string(fig4, tiny(1), OutputFormat::kTable),
            run_to_string(fig4, tiny(8), OutputFormat::kTable));
  EXPECT_EQ(run_to_string(fig4, tiny(1), OutputFormat::kCsv),
            run_to_string(fig4, tiny(8), OutputFormat::kCsv));
}

TEST(Driver, TableFormatCarriesBannerAndNotes) {
  const std::string out =
      run_to_string(get("fig4"), tiny(0), OutputFormat::kTable);
  EXPECT_NE(out.find("== Figure 4"), std::string::npos);
  EXPECT_NE(out.find("Avg IPC"), std::string::npos);
  EXPECT_NE(out.find("paper: 61%"), std::string::npos);
}

TEST(Driver, CsvFormatIsCommentedPerSection) {
  const std::string out =
      run_to_string(get("table2"), tiny(0), OutputFormat::kCsv);
  EXPECT_NE(out.find("# experiment: table2"), std::string::npos);
  EXPECT_NE(out.find("# section: Per-thread detail"), std::string::npos);
  EXPECT_NE(out.find("ILP Comb,Thread 0"), std::string::npos);
}

TEST(Driver, JsonParamsReflectSchemaAndForcedStats) {
  const JsonValue cost = JsonValue::parse(
      run_to_string(get("fig9"), tiny(0), OutputFormat::kJson));
  // Cost-only experiment: machine is in the schema, budget is not.
  EXPECT_NE(cost.get("params").find("machine"), nullptr);
  EXPECT_EQ(cost.get("params").find("budget"), nullptr);

  const JsonValue me = JsonValue::parse(
      run_to_string(get("merge-efficiency"), tiny(0), OutputFormat::kJson));
  EXPECT_EQ(me.get("params").get("stats").as_string(), "full");
  EXPECT_TRUE(me.get("params").get("stats_forced").as_bool());
}

TEST(Driver, ParamResolutionLayersCliOverEnv) {
  ArgParser parser("t", "");
  ExperimentParams::add_standard_flags(parser);
  const char* argv[] = {"t", "--budget=222", "--stats=full", "--workers=3"};
  ASSERT_EQ(parser.parse(4, argv), ArgParser::Outcome::kOk);
  const ExperimentParams p = ExperimentParams::resolve(parser);
  EXPECT_EQ(p.cfg.sim.instruction_budget, 222u);
  EXPECT_EQ(p.cfg.sim.stats, StatsLevel::kFull);
  EXPECT_EQ(p.cfg.batch.workers, 3u);
}

TEST(Driver, FastFlagMatchesEnvFastScale) {
  ArgParser parser("t", "");
  ExperimentParams::add_standard_flags(parser);
  const char* argv[] = {"t", "--fast"};
  ASSERT_EQ(parser.parse(2, argv), ArgParser::Outcome::kOk);
  const ExperimentParams p = ExperimentParams::resolve(parser);
  EXPECT_TRUE(p.fast);
  EXPECT_EQ(p.cfg.sim.instruction_budget, kFastInstructionBudget);
  EXPECT_EQ(p.cfg.sim.timeslice_cycles, kFastTimesliceCycles);
  // An explicit budget still overrides the fast scale (CLI > fast).
  ArgParser parser2("t", "");
  ExperimentParams::add_standard_flags(parser2);
  const char* argv2[] = {"t", "--fast", "--budget=123"};
  ASSERT_EQ(parser2.parse(3, argv2), ArgParser::Outcome::kOk);
  EXPECT_EQ(ExperimentParams::resolve(parser2).cfg.sim.instruction_budget,
            123u);
}

TEST(Driver, FilterValidationRejectsTypos) {
  {
    ArgParser parser("t", "");
    ExperimentParams::add_standard_flags(parser);
    const char* argv[] = {"t", "--schemes=2SC3,NOT_A_SCHEME"};
    ASSERT_EQ(parser.parse(2, argv), ArgParser::Outcome::kOk);
    EXPECT_THROW((void)ExperimentParams::resolve(parser), CheckError);
  }
  {
    ArgParser parser("t", "");
    ExperimentParams::add_standard_flags(parser);
    const char* argv[] = {"t", "--workloads=LLHH,XXXX"};
    ASSERT_EQ(parser.parse(2, argv), ArgParser::Outcome::kOk);
    EXPECT_THROW((void)ExperimentParams::resolve(parser), CheckError);
  }
}

TEST(Driver, SchemeAndWorkloadFiltersNarrowFig10) {
  ExperimentParams p = tiny(0);
  p.schemes = {"2SC3", "3CCC"};
  p.workloads = {"LLHH"};
  const JsonValue v = JsonValue::parse(
      run_to_string(get("fig10"), p, OutputFormat::kJson));
  ASSERT_EQ(v.get("sections").size(), 1u);  // grouped/headlines skipped
  const JsonValue& section = v.get("sections").at(0);
  EXPECT_EQ(section.get("columns").size(), 3u);  // Workload + 2 schemes
  EXPECT_EQ(section.get("rows").size(), 2u);     // LLHH + Average
  EXPECT_EQ(v.get("params").get("schemes").size(), 2u);
}

TEST(Driver, OutFlagWritesTheSameBytesAsStdout) {
  // fig9 is cost-only (no simulation), so both runs are fast and
  // deterministic. The contract: --out=FILE carries exactly the bytes the
  // stdout path would.
  const char* stdout_argv[] = {"cvmt", "run", "fig9", "--format=csv"};
  testing::internal::CaptureStdout();
  ASSERT_EQ(cvmt_main(4, stdout_argv), 0);
  const std::string via_stdout = testing::internal::GetCapturedStdout();
  ASSERT_FALSE(via_stdout.empty());

  const std::string path =
      testing::TempDir() + "cvmt_driver_out_test.csv";
  const std::string out_flag = "--out=" + path;
  const char* file_argv[] = {"cvmt", "run", "fig9", "--format=csv",
                             out_flag.c_str()};
  testing::internal::CaptureStdout();
  ASSERT_EQ(cvmt_main(5, file_argv), 0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");  // all in the file

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), via_stdout);
  std::remove(path.c_str());
}

TEST(Driver, OutFlagDoesNotTruncateOnUnknownExperimentId) {
  // A typo'd id must fail BEFORE the --out file is opened (opening
  // truncates), so an existing report survives the mistake.
  const std::string path = testing::TempDir() + "cvmt_out_preserved.txt";
  {
    std::ofstream f(path);
    f << "previous report";
  }
  const std::string out_flag = "--out=" + path;
  const char* argv[] = {"cvmt", "run", "fgi10", out_flag.c_str()};
  testing::internal::CaptureStdout();
  EXPECT_EQ(cvmt_main(4, argv), 2);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "previous report");
  std::remove(path.c_str());
}

TEST(Driver, OutFlagToUnwritablePathIsAUsageError) {
  const char* argv[] = {"cvmt", "run", "fig9",
                        "--out=/nonexistent-dir/x/report.txt"};
  testing::internal::CaptureStdout();
  EXPECT_EQ(cvmt_main(4, argv), 2);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
}

// There is one simulation path and no lane count to choose: --lanes is an
// unknown option to `cvmt run` and `cvmt fuzz` alike, a usage error.
TEST(Driver, LanesFlagIsAnUnknownOption) {
  for (std::vector<const char*> argv :
       {std::vector<const char*>{"cvmt", "run", "fig10", "--lanes=2"},
        std::vector<const char*>{"cvmt", "fuzz", "--lanes=2"}}) {
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    EXPECT_EQ(cvmt_main(static_cast<int>(argv.size()), argv.data()), 2)
        << argv[1];
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "") << argv[1];
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown option --lanes"), std::string::npos) << err;
  }
}

TEST(Driver, MachineShapeFlagChangesTheMachine) {
  ArgParser parser("t", "");
  ExperimentParams::add_standard_flags(parser);
  const char* argv[] = {"t", "--clusters=2", "--issue=8"};
  ASSERT_EQ(parser.parse(3, argv), ArgParser::Outcome::kOk);
  const ExperimentParams p = ExperimentParams::resolve(parser);
  EXPECT_EQ(p.cfg.sim.machine.num_clusters, 2);
  EXPECT_EQ(p.cfg.sim.machine.issue_per_cluster, 8);
}

TEST(Driver, MachineFlagResolvesBuiltinsAsOneUnit) {
  ArgParser parser("t", "");
  ExperimentParams::add_standard_flags(parser);
  const char* argv[] = {"t", "--machine=l2banked"};
  ASSERT_EQ(parser.parse(2, argv), ArgParser::Outcome::kOk);
  const ExperimentParams p = ExperimentParams::resolve(parser);
  EXPECT_EQ(p.machine_spec, "l2banked");
  EXPECT_TRUE(p.cfg.sim.mem.has_l2);
  EXPECT_EQ(p.cfg.sim.mem.dcache_banks, 4);
  EXPECT_TRUE(p.cfg.sim.machine == MachineConfig::vex4x4());
}

TEST(Driver, MachineFlagConflictsWithShapeFlags) {
  ArgParser parser("t", "");
  ExperimentParams::add_standard_flags(parser);
  const char* argv[] = {"t", "--machine=vex4x4", "--clusters=2"};
  ASSERT_EQ(parser.parse(3, argv), ArgParser::Outcome::kOk);
  EXPECT_THROW((void)ExperimentParams::resolve(parser), CheckError);
}

// A rejected knob is a usage error raised before the store directory is
// touched: no manifest is left behind to refuse every later valid run.
TEST(Driver, RejectedKnobLeavesNoStoreManifest) {
  const std::string dir = testing::TempDir() + "cvmt_rejected_knob_store";
  std::filesystem::remove_all(dir);
  const std::string store_flag = "--store=" + dir;
  const char* argv[] = {"cvmt", "run", "fig4", "--budget=0",
                        store_flag.c_str()};
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(cvmt_main(5, argv), 2);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("\"budget\" must be >= 1"), std::string::npos) << err;
  EXPECT_FALSE(std::filesystem::exists(dir + "/manifest.json"));
  EXPECT_FALSE(std::filesystem::exists(dir));
  std::filesystem::remove_all(dir);
}

TEST(Driver, MachinesSubcommandListsBuiltins) {
  const char* argv[] = {"cvmt", "machines"};
  testing::internal::CaptureStdout();
  ASSERT_EQ(cvmt_main(2, argv), 0);
  const std::string out = testing::internal::GetCapturedStdout();
  for (const std::string& name : builtin_machine_names())
    EXPECT_NE(out.find(name), std::string::npos) << name << "\n" << out;
}

TEST(Driver, MachinesSubcommandValidatesFiles) {
  const std::string good = testing::TempDir() + "cvmt_good.machine";
  {
    MachineDescription d;
    ASSERT_TRUE(find_builtin_machine("het4422", d));
    std::ofstream f(good, std::ios::binary);
    f << serialize_machine(d);
  }
  const char* ok_argv[] = {"cvmt", "machines", good.c_str()};
  testing::internal::CaptureStdout();
  EXPECT_EQ(cvmt_main(3, ok_argv), 0);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("ok"), std::string::npos) << out;
  EXPECT_NE(out.find("het4422"), std::string::npos) << out;
  std::remove(good.c_str());

  const std::string bad = testing::TempDir() + "cvmt_bad.machine";
  {
    std::ofstream f(bad, std::ios::binary);
    f << "clusters 1\nissue 2\nmul_slots 0x4\n";
  }
  const char* bad_argv[] = {"cvmt", "machines", bad.c_str()};
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(cvmt_main(3, bad_argv), 1);
  (void)testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("mul slot beyond issue width"), std::string::npos)
      << err;
  std::remove(bad.c_str());

  const char* missing_argv[] = {"cvmt", "machines", "/no/such.machine"};
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(cvmt_main(3, missing_argv), 1);
  (void)testing::internal::GetCapturedStdout();
  (void)testing::internal::GetCapturedStderr();
}

TEST(Driver, AblationMachineFilesIsRegistered) {
  const Experiment& e = get("ablation_machine_files");
  EXPECT_EQ(e.artifact, "extension");
}

}  // namespace
}  // namespace cvmt
