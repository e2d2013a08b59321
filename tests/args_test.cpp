// ArgParser: flag parsing, positionals, help and bad-input rejection;
// plus, for every standard experiment knob in one parameterized suite,
// that its flag sets it and its retired CVMT_* variable has no effect.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "exp/params.hpp"
#include "support/args.hpp"
#include "support/check.hpp"

namespace cvmt {
namespace {

class ArgsTest : public ::testing::Test {
 protected:
  static ArgParser make() {
    ArgParser p("prog", "Test program.");
    p.add_flag("verbose", "Be chatty.");
    p.add_u64("budget", "n", "Budget.");
    p.add_string("stats", "level", "Stats level.", {"full", "fast"});
    p.add_positional("scheme", "Scheme name.");
    p.add_positional("workload", "Workload name.");
    return p;
  }

  static ArgParser::Outcome parse(ArgParser& p,
                                  std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return p.parse(static_cast<int>(argv.size()), argv.data());
  }
};

TEST_F(ArgsTest, DefaultsWhenNothingGiven) {
  ArgParser p = make();
  ASSERT_EQ(parse(p, {}), ArgParser::Outcome::kOk);
  EXPECT_FALSE(p.get_flag("verbose"));
  EXPECT_EQ(p.get_u64("budget", 42), 42u);
  EXPECT_FALSE(p.set_on_cli("budget"));
  EXPECT_EQ(p.get_string("stats", "fast"), "fast");
  EXPECT_EQ(p.num_positionals(), 0u);
  EXPECT_EQ(p.positional_or(0, "dflt"), "dflt");
}

TEST_F(ArgsTest, CliValuesBothSyntaxes) {
  ArgParser p = make();
  ASSERT_EQ(parse(p, {"--budget=123", "--stats", "full", "--verbose"}),
            ArgParser::Outcome::kOk);
  EXPECT_EQ(p.get_u64("budget", 0), 123u);
  EXPECT_EQ(p.get_string("stats", "fast"), "full");
  EXPECT_TRUE(p.get_flag("verbose"));
  EXPECT_TRUE(p.set_on_cli("budget"));
  EXPECT_TRUE(p.set_on_cli("stats"));
}

TEST_F(ArgsTest, MalformedCliIsAHardError) {
  {
    ArgParser p = make();
    EXPECT_EQ(parse(p, {"--budget=12abc"}), ArgParser::Outcome::kError);
  }
  {
    ArgParser p = make();
    EXPECT_EQ(parse(p, {"--stats=sometimes"}), ArgParser::Outcome::kError);
  }
  {
    ArgParser p = make();
    EXPECT_EQ(parse(p, {"--budget"}), ArgParser::Outcome::kError);
  }
  {
    ArgParser p = make();
    EXPECT_EQ(parse(p, {"--verbose=1"}), ArgParser::Outcome::kError);
  }
  {
    ArgParser p = make();
    EXPECT_EQ(parse(p, {"--no-such-flag"}), ArgParser::Outcome::kError);
  }
}

TEST_F(ArgsTest, PositionalsAndDoubleDash) {
  ArgParser p = make();
  ASSERT_EQ(parse(p, {"2SC3", "--verbose", "--", "--LLHH"}),
            ArgParser::Outcome::kOk);
  ASSERT_EQ(p.num_positionals(), 2u);
  EXPECT_EQ(p.positional(0), "2SC3");
  EXPECT_EQ(p.positional(1), "--LLHH");  // after --, flags are positional
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST_F(ArgsTest, TooManyPositionalsRejected) {
  ArgParser p = make();
  EXPECT_EQ(parse(p, {"a", "b", "c"}), ArgParser::Outcome::kError);
}

TEST_F(ArgsTest, HelpListsOptionsEnvAndPositionals) {
  ArgParser p = make();
  std::ostringstream os;
  p.print_help(os);
  const std::string help = os.str();
  EXPECT_NE(help.find("usage: prog"), std::string::npos);
  EXPECT_NE(help.find("--budget=<n>"), std::string::npos);
  EXPECT_EQ(help.find("env:"), std::string::npos);
  EXPECT_NE(help.find("one of: full fast"), std::string::npos);
  EXPECT_NE(help.find("scheme"), std::string::npos);
  EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST_F(ArgsTest, CliSetNamesTracksExplicitFlags) {
  ArgParser p = make();
  ASSERT_EQ(parse(p, {"--verbose", "--budget=9"}), ArgParser::Outcome::kOk);
  const auto names = p.cli_set_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "verbose");
  EXPECT_EQ(names[1], "budget");
}

TEST_F(ArgsTest, UndeclaredOptionQueriesThrow) {
  ArgParser p = make();
  ASSERT_EQ(parse(p, {}), ArgParser::Outcome::kOk);
  EXPECT_THROW((void)p.get_u64("nope", 0), CheckError);
  EXPECT_THROW((void)p.get_flag("budget"), CheckError);  // kind mismatch
}

TEST_F(ArgsTest, UnknownFlagErrorNamesTheFlag) {
  ArgParser p = make();
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(parse(p, {"--no-such-flag"}), ArgParser::Outcome::kError);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("unknown option --no-such-flag"), std::string::npos)
      << err;
  EXPECT_NE(err.find("--help"), std::string::npos) << err;
}

TEST_F(ArgsTest, DuplicateFlagIsAnError) {
  {
    ArgParser p = make();
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(parse(p, {"--budget=1", "--budget=2"}),
              ArgParser::Outcome::kError);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("duplicate option --budget"), std::string::npos)
        << err;
  }
  {
    // Mixed syntaxes are still the same option.
    ArgParser p = make();
    EXPECT_EQ(parse(p, {"--stats=fast", "--stats", "full"}),
              ArgParser::Outcome::kError);
  }
  {
    ArgParser p = make();
    EXPECT_EQ(parse(p, {"--verbose", "--verbose"}),
              ArgParser::Outcome::kError);
  }
}

TEST_F(ArgsTest, EqualsAndSpaceValueFormsAreEquivalent) {
  for (const auto& args :
       {std::initializer_list<const char*>{"--budget=123", "--stats=full"},
        std::initializer_list<const char*>{"--budget", "123", "--stats",
                                           "full"}}) {
    ArgParser p = make();
    ASSERT_EQ(parse(p, args), ArgParser::Outcome::kOk);
    EXPECT_EQ(p.get_u64("budget", 0), 123u);
    EXPECT_EQ(p.get_string("stats", "fast"), "full");
  }
}

// ------------------------------------------------ standard experiment knobs

/// One standard experiment knob: its flag, the CVMT_* variable that used
/// to set it, a non-default value for that variable, and a CLI value.
struct Knob {
  const char* flag;
  const char* env;
  enum class Kind { kFlag, kU64, kString } kind;
  const char* env_value;
  const char* cli_value;
};

/// Prints a knob as its flag name. Without it gtest prints a byte dump of
/// the struct, pointers included, and the discovered ctest names moved
/// whenever the string literals' addresses did.
void PrintTo(const Knob& k, std::ostream* os) { *os << k.flag; }

class StandardKnobTest : public ::testing::TestWithParam<Knob> {
 protected:
  void SetUp() override { ::setenv(GetParam().env, GetParam().env_value, 1); }
  void TearDown() override { ::unsetenv(GetParam().env); }

  static ArgParser make_standard() {
    ArgParser p("prog", "Standard experiment flags.");
    ExperimentParams::add_standard_flags(p);
    return p;
  }
};

TEST_P(StandardKnobTest, CliSetsValueAndEnvIsIgnored) {
  const Knob k = GetParam();

  // No flag: the fallback wins although the old variable is set.
  {
    ArgParser p = make_standard();
    const char* argv[] = {"prog"};
    ASSERT_EQ(p.parse(1, argv), ArgParser::Outcome::kOk);
    switch (k.kind) {
      case Knob::Kind::kFlag: EXPECT_FALSE(p.get_flag(k.flag)); break;
      case Knob::Kind::kU64:
        EXPECT_EQ(p.get_u64(k.flag, 424242), 424242u);
        break;
      case Knob::Kind::kString:
        EXPECT_EQ(p.get_string(k.flag, "fallback"), "fallback");
        break;
    }
  }

  // With the flag: the flag's value wins.
  {
    ArgParser p = make_standard();
    const std::string arg =
        k.kind == Knob::Kind::kFlag
            ? "--" + std::string(k.flag)
            : "--" + std::string(k.flag) + "=" + k.cli_value;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_EQ(p.parse(2, argv), ArgParser::Outcome::kOk);
    EXPECT_TRUE(p.set_on_cli(k.flag));
    switch (k.kind) {
      case Knob::Kind::kFlag: EXPECT_TRUE(p.get_flag(k.flag)); break;
      case Knob::Kind::kU64:
        EXPECT_EQ(p.get_u64(k.flag, 424242),
                  std::strtoull(k.cli_value, nullptr, 10));
        break;
      case Knob::Kind::kString:
        EXPECT_EQ(p.get_string(k.flag, "fallback"), k.cli_value);
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryCvmtKnob, StandardKnobTest,
    ::testing::Values(
        Knob{"fast", "CVMT_FAST", Knob::Kind::kFlag, "1", ""},
        Knob{"budget", "CVMT_BUDGET", Knob::Kind::kU64, "9000", "123"},
        Knob{"timeslice", "CVMT_TIMESLICE", Knob::Kind::kU64, "777",
             "555"},
        Knob{"workers", "CVMT_WORKERS", Knob::Kind::kU64, "3", "2"},
        Knob{"stats", "CVMT_STATS", Knob::Kind::kString, "full", "fast"},
        Knob{"schemes", "CVMT_SCHEMES", Knob::Kind::kString, "2sc3,3ccc",
             "1S"},
        Knob{"workloads", "CVMT_WORKLOADS", Knob::Kind::kString, "llhh",
             "HHHH"},
        Knob{"clusters", "CVMT_CLUSTERS", Knob::Kind::kU64, "8", "2"},
        Knob{"issue", "CVMT_ISSUE", Knob::Kind::kU64, "2", "4"},
        Knob{"machine", "CVMT_MACHINE", Knob::Kind::kString, "vex4x2",
             "l2banked"},
        Knob{"store", "CVMT_STORE", Knob::Kind::kString, "envstore",
             "clistore"},
        Knob{"shard", "CVMT_SHARD", Knob::Kind::kString, "1/2", "0/4"}),
    [](const ::testing::TestParamInfo<Knob>& info) {
      return std::string(info.param.flag);
    });

}  // namespace
}  // namespace cvmt
