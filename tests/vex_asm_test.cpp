// Tests of the VEX-style textual program format: round-trip exactness,
// hand-written programs, and error reporting.
#include <gtest/gtest.h>

#include <memory>

#include "sim/session.hpp"
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
  EXPECT_EQ(l0.body.size(), 3u);
  EXPECT_EQ(l0.real_instrs, 2);
  EXPECT_EQ(l0.total_ops, 3);
  EXPECT_EQ(l0.mem_ops, 1);
  EXPECT_DOUBLE_EQ(l0.mean_trips, 10.0);
  EXPECT_EQ(l0.code_base, 0x10000u);
  EXPECT_EQ(l0.body[1].op_count(), 0u);  // the bubble
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
  for (const char* name : {"mcf", "idct", "colorspace"}) {
    const auto original = program(name);
    const std::string text = dump_program(*original);
    const auto reparsed = parse_program(text, kM);
    EXPECT_EQ(dump_program(*reparsed), text) << name;
  }
}

TEST(VexAsm, ReparsedProgramSimulatesIdentically) {
  const auto original = program("djpeg");
  const auto reparsed = parse_program(dump_program(*original), kM);
  // Same stream seed => identical dynamic streams.
  TraceGenerator a(original, 11), b(reparsed, 11);
  for (int i = 0; i < 4000; ++i) {
    const Instruction& ia = a.next();
    const Instruction& ib = b.next();
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
