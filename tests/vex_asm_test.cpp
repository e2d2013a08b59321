// Tests of the VEX-style textual program format: round-trip exactness,
// hand-written programs, and error reporting.
#include <gtest/gtest.h>

#include <iomanip>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "isa/machine_file.hpp"
#include "sim/session.hpp"
#include "store/result_store.hpp"
#include "trace/benchmark_suite.hpp"
#include "trace/vex_asm.hpp"

namespace cvmt {
namespace {

const MachineConfig kM = MachineConfig::vex4x4();

std::shared_ptr<const SyntheticProgram> program(std::string_view name) {
  return ArtifactCache::global().program(name, kM);
}

const char* kMiniProgram = R"(
# A two-loop hand-written program.
.program mini
.machine clusters=4 issue=4
.stride 8
.codebytes 32
.midtaken 0.25
.loop trips=10.000 miss=0.000000 code=0x10000 hot=0x20000000+4096 cold=0x40000000
{ c0.0 alu ; c0.2 ld }
{ }
{ c0.3 br }
.endloop
.loop trips=4.000 miss=0.250000 code=0x11000 hot=0x20001000+4096 cold=0x44000000
{ c1.0 alu ; c2.1 mpy ; c1.2 st }
{ c1.3 br }
.endloop
)";

TEST(VexAsm, ParsesHandWrittenProgram) {
  const auto prog = parse_program(kMiniProgram, kM);
  EXPECT_EQ(prog->profile().name, "mini");
  ASSERT_EQ(prog->loops().size(), 2u);
  const auto& l0 = prog->loops()[0];
  EXPECT_EQ(l0.steps.size(), 3u);
  EXPECT_EQ(l0.real_instrs, 2);
  EXPECT_EQ(l0.total_ops, 3);
  EXPECT_EQ(l0.mem_ops, 1);
  EXPECT_DOUBLE_EQ(l0.mean_trips, 10.0);
  EXPECT_EQ(l0.code_base, 0x10000u);
  EXPECT_EQ(l0.steps[1].op_count, 0u);  // the bubble
  EXPECT_EQ(l0.instruction(1).op_count(), 0u);
  // cycles = 3 instructions + 2 taken-branch penalty.
  EXPECT_DOUBLE_EQ(l0.expected_cycles_perfect, 5.0);
  const auto& l1 = prog->loops()[1];
  EXPECT_DOUBLE_EQ(l1.miss_frac, 0.25);
  EXPECT_EQ(l1.cold_base, 0x44000000u);
}

TEST(VexAsm, ParsedProgramExecutes) {
  const auto prog = parse_program(kMiniProgram, kM);
  TraceGenerator gen(prog, 1);
  for (int i = 0; i < 1000; ++i)
    ASSERT_EQ(gen.next().validate(kM), "");
  EXPECT_EQ(gen.instructions_emitted(), 1000u);
}

TEST(VexAsm, RoundTripIsExact) {
  for (const BenchmarkProfile& p : table1_profiles()) {
    const auto original = program(p.name);
    const std::string text = dump_program(*original);
    const auto reparsed = parse_program(text, kM);
    EXPECT_EQ(dump_program(*reparsed), text) << p.name;
  }
}

TEST(VexAsm, DumpDigestsArePinnedPerProgramAndMachine) {
  // The bytes of every built Table 1 program: placement, bubbles, PCs,
  // trip counts, miss mix and data regions. A builder change that moves
  // any of them shows up here, named by program and machine, before it
  // reaches a stream or a figure.
  const std::map<std::pair<std::string, std::string>, std::uint64_t>
      golden = {
          {{"vex4x4", "mcf"}, 0xad50384aaabbb0e0ULL},
          {{"vex4x4", "bzip2"}, 0x714ca7fcc616ccfdULL},
          {{"vex4x4", "blowfish"}, 0x53983018b5a5fb18ULL},
          {{"vex4x4", "gsmencode"}, 0xbd86532edc408d64ULL},
          {{"vex4x4", "g721encode"}, 0x0dc5bb03e7866991ULL},
          {{"vex4x4", "g721decode"}, 0x336f78ee02c63801ULL},
          {{"vex4x4", "cjpeg"}, 0x55d4851a302530f7ULL},
          {{"vex4x4", "djpeg"}, 0xfe86d7954eb397efULL},
          {{"vex4x4", "imgpipe"}, 0x612dc3a217963a83ULL},
          {{"vex4x4", "x264"}, 0x1148a8f86d38476dULL},
          {{"vex4x4", "idct"}, 0x8344a38cbf05ce91ULL},
          {{"vex4x4", "colorspace"}, 0x06d715bb3c5af779ULL},
          {{"het4422", "mcf"}, 0x9691a4cf62bafabbULL},
          {{"het4422", "bzip2"}, 0x1ad1805454579fb0ULL},
          {{"het4422", "blowfish"}, 0x4dacf58b47410d99ULL},
          {{"het4422", "gsmencode"}, 0xb537587a7ab2dc16ULL},
          {{"het4422", "g721encode"}, 0x742fe9b6eb64be42ULL},
          {{"het4422", "g721decode"}, 0xd36f3c824b0cbb4fULL},
          {{"het4422", "cjpeg"}, 0xb71cdc873042f633ULL},
          {{"het4422", "djpeg"}, 0x15b84f4bdc29dafbULL},
          {{"het4422", "imgpipe"}, 0x5bab4ecf75fa678aULL},
          {{"het4422", "x264"}, 0xdd3447060f9671d1ULL},
          {{"het4422", "idct"}, 0x9f65785eacd08f53ULL},
          {{"het4422", "colorspace"}, 0x1e3ec65e28917b7dULL},
      };
  for (const char* machine_name : {"vex4x4", "het4422"}) {
    MachineDescription d;
    ASSERT_TRUE(find_builtin_machine(machine_name, d));
    for (const BenchmarkProfile& p : table1_profiles()) {
      const SyntheticProgram prog(p, d.machine);
      const std::uint64_t digest = fnv1a64(dump_program(prog));
      const auto it = golden.find({machine_name, p.name});
      EXPECT_TRUE(it != golden.end() && it->second == digest)
          << "{{\"" << machine_name << "\", \"" << p.name << "\"}, 0x"
          << std::hex << std::setw(16) << std::setfill('0') << digest
          << "ULL},";
    }
  }
}

TEST(VexAsm, ReparsedProgramSimulatesIdentically) {
  const auto original = program("djpeg");
  const auto reparsed = parse_program(dump_program(*original), kM);
  // Same stream seed => identical dynamic streams.
  TraceGenerator a(original, 11), b(reparsed, 11);
  for (int i = 0; i < 4000; ++i) {
    const Instruction ia = a.next();
    const Instruction ib = b.next();
    ASSERT_TRUE(ia == ib) << "diverged at " << i;
  }
}

TEST(VexAsm, ReparsedProgramMatchesEndToEndSimulation) {
  const auto original = program("cjpeg");
  const auto reparsed = parse_program(dump_program(*original), kM);
  SimConfig cfg;
  cfg.instruction_budget = 20'000;
  const SimResult ra =
      run_simulation(Scheme::single_thread(), {original}, cfg);
  const SimResult rb =
      run_simulation(Scheme::single_thread(), {reparsed}, cfg);
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.total_ops, rb.total_ops);
}

TEST(VexAsm, DumpContainsMachineAndLoops) {
  const std::string text = dump_program(*program("gsmencode"));
  EXPECT_NE(text.find(".program gsmencode"), std::string::npos);
  EXPECT_NE(text.find(".machine clusters=4 issue=4"), std::string::npos);
  EXPECT_NE(text.find(".loop "), std::string::npos);
  EXPECT_NE(text.find(".endloop"), std::string::npos);
}

TEST(VexAsm, RejectsMachineMismatch) {
  EXPECT_THROW((void)parse_program(kMiniProgram, MachineConfig::vex4x2()),
               CheckError);
}

TEST(VexAsm, RejectsMalformedInput) {
  // Missing .machine.
  EXPECT_THROW((void)parse_program(".program x\n", kM), CheckError);
  // Instruction outside a loop.
  EXPECT_THROW(
      (void)parse_program(".machine clusters=4 issue=4\n{ c0.0 alu }\n",
                          kM),
      CheckError);
  // Unterminated loop (also lacks the final branch).
  EXPECT_THROW((void)parse_program(".machine clusters=4 issue=4\n"
                                   ".loop trips=1 miss=0 code=0x0 "
                                   "hot=0x0+64 cold=0x0\n{ c0.0 alu }\n",
                                   kM),
               CheckError);
  // Unknown op kind.
  EXPECT_THROW((void)parse_program(".machine clusters=4 issue=4\n"
                                   ".loop trips=1 miss=0 code=0x0 "
                                   "hot=0x0+64 cold=0x0\n{ c0.0 fma }\n"
                                   ".endloop\n",
                                   kM),
               CheckError);
  // Unknown directive.
  EXPECT_THROW((void)parse_program(".bogus\n", kM), CheckError);
}

TEST(VexAsm, RejectsSemanticallyInvalidLoops) {
  // Loop whose last instruction has no branch.
  const char* no_branch =
      ".machine clusters=4 issue=4\n"
      ".loop trips=1 miss=0 code=0x0 hot=0x0+64 cold=0x0\n"
      "{ c0.0 alu }\n"
      ".endloop\n";
  EXPECT_THROW((void)parse_program(no_branch, kM), CheckError);
  // Operation on a slot that cannot execute it.
  const char* bad_slot =
      ".machine clusters=4 issue=4\n"
      ".loop trips=1 miss=0 code=0x0 hot=0x0+64 cold=0x0\n"
      "{ c0.0 ld ; c0.3 br }\n"
      ".endloop\n";
  EXPECT_THROW((void)parse_program(bad_slot, kM), CheckError);
}

/// Expects parse_program(text) to throw a CheckError mentioning `needle`.
void expect_parse_error(const std::string& text,
                        const std::string& needle) {
  try {
    (void)parse_program(text, kM);
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(needle), std::string::npos)
        << "message \"" << msg << "\" does not mention \"" << needle
        << "\"";
    return;
  }
  ADD_FAILURE() << "no error for:\n" << text;
}

std::string loop_with(const std::string& loop_line) {
  return ".machine clusters=4 issue=4\n" + loop_line +
         "\n{ c0.0 alu ; c0.3 br }\n.endloop\n";
}

// Regression: field_u64/field_double passed a null end pointer to
// strtoull/strtod, so a garbage field silently parsed as 0 (and a signed
// one wrapped). Every numeric field must now validate the whole token and
// name the offending line.
TEST(VexAsm, GarbageNumericFieldsFailWithTheLineNumber) {
  expect_parse_error(
      loop_with(".loop trips=1 miss=0 code=0xZZ hot=0x0+64 cold=0x0"),
      "line 2: code= is not an unsigned number: '0xZZ'");
  expect_parse_error(
      loop_with(".loop trips=oops miss=0 code=0x0 hot=0x0+64 cold=0x0"),
      "line 2: trips= is not a non-negative number: 'oops'");
  expect_parse_error(
      loop_with(".loop trips=1 miss=0.5x code=0x0 hot=0x0+64 cold=0x0"),
      "miss= is not a non-negative number: '0.5x'");
  expect_parse_error(
      loop_with(".loop trips=1 miss=0 code=0x0 hot=0x0+64kb cold=0x0"),
      "hot= window is not an unsigned number: '64kb'");
  expect_parse_error(".machine clusters=4 issue=4\n.stride 8x\n",
                     "line 2: .stride is not an unsigned number: '8x'");
  expect_parse_error(".machine clusters=4 issue=4\n.codebytes eight\n",
                     ".codebytes is not an unsigned number: 'eight'");
  expect_parse_error(".machine clusters=4 issue=4\n.midtaken often\n",
                     ".midtaken is not a non-negative number: 'often'");
}

TEST(VexAsm, EmptyAndSignedFieldsAreRejected) {
  expect_parse_error(
      loop_with(".loop trips= miss=0 code=0x0 hot=0x0+64 cold=0x0"),
      "trips= is not a non-negative number: ''");
  // strtoull would wrap "-48" to 18446744073709551598 — reject instead.
  expect_parse_error(
      loop_with(".loop trips=1 miss=0 code=-48 hot=0x0+64 cold=0x0"),
      "code= is not an unsigned number: '-48'");
  expect_parse_error(
      loop_with(".loop trips=-1 miss=0 code=0x0 hot=0x0+64 cold=0x0"),
      "trips= is not a non-negative number: '-1'");
  expect_parse_error(".machine clusters=+4 issue=4\n",
                     "clusters= is not an unsigned number: '+4'");
}

TEST(VexAsm, MalformedOperationDigitsAreRejected) {
  expect_parse_error(loop_with(".loop trips=1 miss=0 code=0x0 hot=0x0+64 "
                               "cold=0x0\n{ cX.0 alu ; c0.3 br }"),
                     "malformed operation");
  expect_parse_error(loop_with(".loop trips=1 miss=0 code=0x0 hot=0x0+64 "
                               "cold=0x0\n{ c0.q alu ; c0.3 br }"),
                     "malformed operation");
}

TEST(VexAsm, CommentsAndBlankLinesIgnored) {
  const std::string text = std::string("# leading comment\n\n") +
                           kMiniProgram + "\n# trailing\n";
  EXPECT_NO_THROW((void)parse_program(text, kM));
}

}  // namespace
}  // namespace cvmt
