// The one knob resolver, ExperimentParams::from_json, through all three
// entry points. Each case is one knob object, fed to `cvmt run` as flags
// (ExperimentParams::resolve), to serve as an experiment request's
// "params" (parse_request) and to `cvmt merge` as a store manifest
// (from_manifest_json). A valid case resolves to the same parameters on
// every path; an invalid one is rejected on every path, by a message that
// names the knob (or the line of a bad .machine file) and carries no
// source path.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "exp/params.hpp"
#include "serve/protocol.hpp"
#include "support/args.hpp"
#include "support/check.hpp"
#include "support/json.hpp"

namespace cvmt {
namespace {

struct KnobCase {
  const char* name;
  const char* knobs;  ///< the knob object, as JSON text
  /// The knob a rejection names (a bad .machine file's rejection names
  /// the file's line instead); nullptr = valid.
  const char* knob;
};

void PrintTo(const KnobCase& c, std::ostream* os) { *os << c.name; }

/// What one entry point made of a knob object.
struct Resolved {
  std::optional<ExperimentParams> params;
  std::string error;  ///< the rejection message when params is empty
};

Resolved via_cli(const JsonValue& knobs) {
  std::vector<std::string> args{"cvmt run"};
  for (const auto& [key, v] : knobs.members()) {
    const std::string flag = "--" + key;
    switch (v.kind()) {
      case JsonValue::Kind::kBool:
        if (v.as_bool()) args.push_back(flag);
        break;
      case JsonValue::Kind::kInt:
        args.push_back(flag + "=" + std::to_string(v.as_int()));
        break;
      case JsonValue::Kind::kString:
        args.push_back(flag + "=" + v.as_string());
        break;
      case JsonValue::Kind::kArray: {
        std::string list;
        for (std::size_t i = 0; i < v.size(); ++i)
          list += (i ? "," : "") + v.at(i).as_string();
        args.push_back(flag + "=" + list);
        break;
      }
      default: ADD_FAILURE() << "no flag form for " << key;
    }
  }
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  ArgParser parser("cvmt run", "");
  ExperimentParams::add_standard_flags(parser);
  EXPECT_EQ(parser.parse(static_cast<int>(argv.size()), argv.data()),
            ArgParser::Outcome::kOk);
  try {
    return {ExperimentParams::resolve(parser), {}};
  } catch (const CheckError& e) {
    return {std::nullopt, e.what()};
  }
}

Resolved via_serve(const JsonValue& knobs) {
  JsonValue request = JsonValue::object();
  request.set("id", 1);
  request.set("type", "experiment");
  request.set("experiment", "fig4");
  request.set("params", knobs);
  try {
    return {parse_request(request.dump(-1)).params, {}};
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), ServeError::kBadRequest);
    EXPECT_EQ(e.id().as_int(), 1);
    return {std::nullopt, e.what()};
  }
}

/// The manifest to_manifest_json would write for these knobs: the same
/// keys with the machine nested, plus version, experiment and shards.
Resolved via_manifest(const JsonValue& knobs) {
  JsonValue manifest = JsonValue::object();
  manifest.set("version", 1);
  manifest.set("experiment", "fig4");
  manifest.set("shards", 1);
  JsonValue machine = JsonValue::object();
  for (const auto& [key, v] : knobs.members()) {
    if (key == "machine")
      machine.set("spec", v);
    else if (key == "clusters" || key == "issue")
      machine.set(key, v);
    else
      manifest.set(key, v);
  }
  manifest.set("machine", std::move(machine));
  std::string id;
  try {
    const ExperimentParams p =
        ExperimentParams::from_manifest_json(manifest, &id);
    EXPECT_EQ(id, "fig4");
    return {p, {}};
  } catch (const CheckError& e) {
    return {std::nullopt, e.what()};
  }
}

class KnobRules : public ::testing::TestWithParam<KnobCase> {};

TEST_P(KnobRules, EveryEntryPointAgrees) {
  const KnobCase& c = GetParam();
  const JsonValue knobs = JsonValue::parse(c.knobs);
  const std::pair<const char*, Resolved> paths[] = {
      {"cli", via_cli(knobs)},
      {"serve", via_serve(knobs)},
      {"manifest", via_manifest(knobs)}};

  if (c.knob == nullptr) {
    const ExperimentParams* cli = nullptr;
    for (const auto& [path, r] : paths) {
      SCOPED_TRACE(path);
      ASSERT_TRUE(r.params.has_value()) << r.error;
      if (cli == nullptr) {
        cli = &*r.params;
        continue;
      }
      EXPECT_EQ(r.params->to_manifest_json("fig4", 1).dump(-1),
                cli->to_manifest_json("fig4", 1).dump(-1));
      EXPECT_EQ(r.params->cfg.batch.workers, cli->cfg.batch.workers);
    }
    return;
  }
  for (const auto& [path, r] : paths) {
    SCOPED_TRACE(path);
    EXPECT_FALSE(r.params.has_value());
    EXPECT_NE(r.error.find(c.knob), std::string::npos) << r.error;
    EXPECT_EQ(r.error.find("CVMT_CHECK"), std::string::npos) << r.error;
    EXPECT_EQ(r.error.find(".cpp:"), std::string::npos) << r.error;
  }
}

INSTANTIATE_TEST_SUITE_P(
    , KnobRules,
    ::testing::Values(
        KnobCase{"fast", R"({"fast":true})", nullptr},
        KnobCase{"budget_1", R"({"budget":1})", nullptr},
        KnobCase{"fast_then_timeslice",
                 R"({"fast":true,"timeslice":777,"stats":"full"})", nullptr},
        KnobCase{"machine_vex4x2", R"({"machine":"vex4x2"})", nullptr},
        KnobCase{"clusters_2_issue_4", R"({"clusters":2,"issue":4})",
                 nullptr},
        KnobCase{"filters",
                 R"({"schemes":["2SC3","imt4"],"workloads":["LLHH","HHHH"]})",
                 nullptr},
        KnobCase{"workers_3", R"({"workers":3})", nullptr},
        KnobCase{"workers_over_the_cap", R"({"workers":5000})", nullptr},
        KnobCase{"budget_0", R"({"budget":0})", "budget"},
        KnobCase{"timeslice_0", R"({"fast":true,"timeslice":0})",
                 "timeslice"},
        KnobCase{"clusters_4294967300", R"({"clusters":4294967300})",
                 "clusters"},
        KnobCase{"clusters_9", R"({"clusters":9})", "clusters"},
        KnobCase{"clusters_2147483648", R"({"clusters":2147483648})",
                 "clusters"},
        KnobCase{"issue_4294967297", R"({"issue":4294967297})", "issue"},
        KnobCase{"shape_over_32_slots", R"({"clusters":8,"issue":8})",
                 "clusters"},
        KnobCase{"machine_with_clusters",
                 R"({"machine":"vex4x2","clusters":2})", "machine"},
        KnobCase{"machine_file_mask_beyond_width",
                 R"({"machine":")" CVMT_SOURCE_DIR
                 R"(/tests/machines/mul_slot_beyond_width.machine"})",
                 "line 5: mul slot beyond issue width"},
        KnobCase{"stats_empty", R"({"stats":""})", "stats"},
        KnobCase{"unknown_workload", R"({"workloads":["LLHH","XXXX"]})",
                 "workloads"},
        KnobCase{"bad_scheme", R"({"schemes":["2SC3","NOT_A_SCHEME"]})",
                 "schemes"}),
    [](const ::testing::TestParamInfo<KnobCase>& info) {
      return std::string(info.param.name);
    });

// The two rules the entry points used to disagree on, pinned at their
// values: more workers than kMaxWorkers are clamped to it, and "stats"
// takes only its two names.
TEST(Knobs, WorkersAreClampedAndStatsTakesTwoNames) {
  JsonValue knobs = JsonValue::object();
  knobs.set("workers", 5000);
  EXPECT_EQ(ExperimentParams::from_json(knobs).cfg.batch.workers,
            ExperimentParams::kMaxWorkers);
  for (const char* stats : {"full", "fast"}) {
    knobs.set("stats", stats);
    EXPECT_NO_THROW((void)ExperimentParams::from_json(knobs)) << stats;
  }
  for (const char* stats : {"", "FULL", "verbose"}) {
    knobs.set("stats", stats);
    EXPECT_THROW((void)ExperimentParams::from_json(knobs), CheckError)
        << stats;
  }
}

// Digits beyond the JSON integer range reach from_json as a double on
// both paths, and both reject them naming the knob.
TEST(Knobs, FlagBeyondTheJsonIntegerRangeIsRejected) {
  ArgParser parser("cvmt run", "");
  ExperimentParams::add_standard_flags(parser);
  const char* argv[] = {"cvmt run", "--workers=18446744073709551615"};
  ASSERT_EQ(parser.parse(2, argv), ArgParser::Outcome::kOk);
  try {
    (void)ExperimentParams::resolve(parser);
    ADD_FAILURE() << "accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("\"workers\""), std::string::npos)
        << e.what();
  }
  try {
    (void)parse_request(
        R"({"type":"experiment","experiment":"fig4",)"
        R"("params":{"workers":18446744073709551615}})");
    ADD_FAILURE() << "accepted";
  } catch (const RequestError& e) {
    EXPECT_EQ(e.code(), ServeError::kBadRequest);
  }
}

}  // namespace
}  // namespace cvmt
