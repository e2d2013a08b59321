// Tests of the synthetic-program builder and the trace generator:
// structural validity, determinism, resumability and statistical shape.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/stats.hpp"
#include "trace/benchmark_suite.hpp"
#include "trace/trace_generator.hpp"
#include "trace/vex_asm.hpp"

namespace cvmt {
namespace {

const MachineConfig kM = MachineConfig::vex4x4();

std::shared_ptr<const SyntheticProgram> make_program(const char* name) {
  return std::make_shared<const SyntheticProgram>(profile_by_name(name), kM);
}

TEST(BenchmarkSuite, TwelveProfilesInTableOrder) {
  const auto& t = table1_profiles();
  ASSERT_EQ(t.size(), 12u);
  EXPECT_EQ(t.front().name, "mcf");
  EXPECT_EQ(t.back().name, "colorspace");
  int low = 0, med = 0, high = 0;
  for (const auto& p : t) {
    switch (p.ilp) {
      case IlpDegree::kLow: ++low; break;
      case IlpDegree::kMedium: ++med; break;
      case IlpDegree::kHigh: ++high; break;
    }
    EXPECT_NO_THROW(p.validate());
  }
  // Table 1: four benchmarks in each ILP class.
  EXPECT_EQ(low, 4);
  EXPECT_EQ(med, 4);
  EXPECT_EQ(high, 4);
}

TEST(BenchmarkSuite, ProfileTargetsMatchTable1) {
  EXPECT_DOUBLE_EQ(profile_by_name("mcf").target_ipc_real, 0.96);
  EXPECT_DOUBLE_EQ(profile_by_name("mcf").target_ipc_perfect, 1.34);
  EXPECT_DOUBLE_EQ(profile_by_name("colorspace").target_ipc_perfect, 8.88);
  EXPECT_DOUBLE_EQ(profile_by_name("gsmencode").target_ipc_real, 1.07);
  EXPECT_THROW((void)profile_by_name("quake"), CheckError);
}

TEST(BenchmarkSuite, NineWorkloadsMatchTable2) {
  const auto& w = table2_workloads();
  ASSERT_EQ(w.size(), 9u);
  EXPECT_EQ(w[0].ilp_combo, "LLLL");
  EXPECT_EQ(w[5].ilp_combo, "LLHH");
  EXPECT_EQ(w[5].benchmarks[2], "x264");
  EXPECT_EQ(w[8].ilp_combo, "HHHH");
  // Every workload's ILP string matches its benchmarks' classes.
  for (const Workload& wl : w)
    for (int t = 0; t < 4; ++t)
      EXPECT_EQ(wl.ilp_combo[static_cast<std::size_t>(t)],
                to_char(profile_by_name(wl.benchmarks[
                    static_cast<std::size_t>(t)]).ilp))
          << wl.ilp_combo << " thread " << t;
}

TEST(TraceGenerator, ResetReplaysBitIdentically) {
  // A run replays a thread's stream by building a new generator: over the
  // same program and seed it reproduces the stream exactly, whatever
  // generators ran before it, including one over another program.
  const auto prog = make_program("mcf");
  const auto skip = [](std::uint64_t) {};
  TraceGenerator first(prog, 42);
  std::vector<std::uint64_t> pcs;
  std::vector<const SyntheticProgram::Step*> steps;
  for (int i = 0; i < 500; ++i) {
    pcs.push_back(first.peek_pc());
    steps.push_back(&first.peek());
    (void)first.retire(skip);
  }
  TraceGenerator other(make_program("idct"), 7);
  for (int i = 0; i < 500; ++i) (void)other.retire(skip);
  TraceGenerator again(prog, 42);
  EXPECT_EQ(again.address_salt(), first.address_salt());
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(again.peek_pc(), pcs[static_cast<std::size_t>(i)]) << i;
    ASSERT_EQ(&again.peek(), steps[static_cast<std::size_t>(i)]) << i;
    (void)again.retire(skip);
  }
}

TEST(SyntheticProgram, EveryTemplateInstructionIsValid) {
  for (const BenchmarkProfile& p : table1_profiles()) {
    const SyntheticProgram prog(p, kM);
    ASSERT_EQ(static_cast<int>(prog.loops().size()), p.num_loops);
    for (const auto& loop : prog.loops()) {
      EXPECT_GE(loop.real_instrs, 2);
      for (std::size_t i = 0; i < loop.steps.size(); ++i)
        EXPECT_EQ(loop.instruction(i).validate(kM), "") << p.name;
    }
  }
}

TEST(SyntheticProgram, LoopsEndWithABranch) {
  const auto prog = make_program("gsmencode");
  for (const auto& loop : prog->loops()) {
    const Instruction last = loop.instruction(loop.steps.size() - 1);
    bool has_branch = false;
    for (const Operation& op : last)
      has_branch |= op.kind == OpKind::kBranch;
    EXPECT_TRUE(has_branch);
  }
}

TEST(SyntheticProgram, FootprintCacheMatchesBodies) {
  // Each step caches what the window loop reads of its instruction; it
  // must agree with the instruction the templates rebuild.
  const auto prog = make_program("djpeg");
  for (const auto& loop : prog->loops()) {
    ASSERT_EQ(loop.op_start.size(), loop.steps.size());
    for (std::size_t i = 0; i < loop.steps.size(); ++i) {
      const SyntheticProgram::Step& step = loop.steps[i];
      const Instruction instr = loop.instruction(i);
      EXPECT_TRUE(step.footprint == Footprint::of(instr, kM));
      EXPECT_EQ(step.pc, instr.pc());
      EXPECT_EQ(step.op_count, instr.op_count());
      EXPECT_EQ(step.last, i + 1 == loop.steps.size());
      std::uint32_t mem_mask = 0;
      unsigned patches = 0;
      for (const Operation& op : instr) {
        if (is_memory(op.kind))
          mem_mask |= 1u << patches++;
        else if (op.kind == OpKind::kBranch)
          ++patches;
      }
      EXPECT_EQ(step.mem_mask, mem_mask);
      EXPECT_EQ(step.num_patches, patches);
    }
  }
}

TEST(SyntheticProgram, AnalyticIpcMatchesTargets) {
  // The builder solves bubbles and miss fractions analytically; its own
  // expectation must land on the Table 1 targets.
  for (const BenchmarkProfile& p : table1_profiles()) {
    const SyntheticProgram prog(p, kM);
    EXPECT_NEAR(prog.expected_ipc_perfect(), p.target_ipc_perfect,
                0.08 * p.target_ipc_perfect)
        << p.name;
    EXPECT_NEAR(prog.expected_ipc_real(), p.target_ipc_real,
                0.08 * p.target_ipc_real)
        << p.name;
  }
}

TEST(SyntheticProgram, HighIlpProgramsAreWider) {
  const auto low = make_program("bzip2");
  const auto high = make_program("colorspace");
  const auto mean_ops = [](const SyntheticProgram& p) {
    double ops = 0, instrs = 0;
    for (const auto& loop : p.loops()) {
      ops += static_cast<double>(loop.total_ops);
      instrs += static_cast<double>(loop.steps.size());
    }
    return ops / instrs;
  };
  EXPECT_LT(mean_ops(*low), 2.0);
  EXPECT_GT(mean_ops(*high), 6.0);
}

TEST(SyntheticProgram, SameProfileSameProgram) {
  const SyntheticProgram a(profile_by_name("cjpeg"), kM);
  const SyntheticProgram b(profile_by_name("cjpeg"), kM);
  ASSERT_EQ(a.loops().size(), b.loops().size());
  for (std::size_t l = 0; l < a.loops().size(); ++l) {
    ASSERT_EQ(a.loops()[l].steps.size(), b.loops()[l].steps.size());
    for (std::size_t i = 0; i < a.loops()[l].steps.size(); ++i)
      EXPECT_TRUE(a.loops()[l].instruction(i) ==
                  b.loops()[l].instruction(i));
  }
}

TEST(TraceGenerator, DeterministicForSameSeed) {
  const auto prog = make_program("mcf");
  TraceGenerator a(prog, 42), b(prog, 42);
  for (int i = 0; i < 5000; ++i) {
    const Instruction ia = a.next();
    const Instruction ib = b.next();
    ASSERT_TRUE(ia == ib) << "diverged at " << i;
  }
}

TEST(TraceGenerator, DifferentSeedsUseDifferentAddressSpaces) {
  const auto prog = make_program("mcf");
  TraceGenerator a(prog, 1), b(prog, 2);
  const std::uint64_t pc_a = a.next().pc();
  const std::uint64_t pc_b = b.next().pc();
  EXPECT_NE(pc_a, pc_b);
}

TEST(TraceGenerator, CopyResumesIdentically) {
  const auto prog = make_program("idct");
  TraceGenerator a(prog, 7);
  for (int i = 0; i < 1234; ++i) a.next();
  TraceGenerator b = a;  // snapshot mid-loop
  for (int i = 0; i < 2000; ++i) {
    const Instruction ia = a.next();
    const Instruction ib = b.next();
    ASSERT_TRUE(ia == ib) << "diverged at " << i;
  }
}

TEST(TraceGenerator, EmitsOnlyValidInstructions) {
  const auto prog = make_program("x264");
  TraceGenerator gen(prog, 3);
  for (int i = 0; i < 10000; ++i)
    ASSERT_EQ(gen.next().validate(kM), "");
}

TEST(TraceGenerator, FootprintMatchesEmittedInstruction) {
  const auto prog = make_program("imgpipe");
  TraceGenerator gen(prog, 4);
  for (int i = 0; i < 2000; ++i) {
    const Footprint fp = gen.peek().footprint;
    const Instruction instr = gen.next();
    EXPECT_TRUE(fp == Footprint::of(instr, kM));
  }
}

TEST(TraceGenerator, CountsEmittedInstructions) {
  const auto prog = make_program("bzip2");
  TraceGenerator gen(prog, 5);
  for (int i = 0; i < 321; ++i) gen.next();
  EXPECT_EQ(gen.instructions_emitted(), 321u);
}

TEST(TraceGenerator, MemOpsCarryAddressesInTheRightRegions) {
  const auto prog = make_program("colorspace");
  TraceGenerator gen(prog, 6);
  int hot = 0, cold = 0;
  for (int i = 0; i < 20000; ++i) {
    const Instruction instr = gen.next();
    for (const Operation& op : instr) {
      if (!is_memory(op.kind)) continue;
      EXPECT_NE(op.addr, 0u);
      // Regions: hot starts at 0x20000000, cold at 0x40000000 (plus the
      // generator's address-space salt).
      if (op.addr - gen.address_salt() >= 0x40000000ULL)
        ++cold;
      else
        ++hot;
    }
  }
  EXPECT_GT(hot, 0);
  EXPECT_GT(cold, 0);  // colorspace streams (IPCr << IPCp)
}

TEST(TraceGenerator, GsmencodeHasNoColdStream) {
  // gsmencode's IPCr == IPCp: the calibration must produce no miss mix.
  const auto prog = make_program("gsmencode");
  for (const auto& loop : prog->loops())
    EXPECT_DOUBLE_EQ(loop.miss_frac, 0.0);
}

TEST(TraceGenerator, VerticalWasteExistsForLowIlp) {
  const auto prog = make_program("bzip2");
  TraceGenerator gen(prog, 8);
  int bubbles = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) bubbles += gen.next().empty() ? 1 : 0;
  // bzip2's IPCp (0.83) < its op density: bubbles must appear.
  EXPECT_GT(bubbles, n / 10);
}

TEST(TraceGenerator, BranchDensityRoughlyOnePerBody) {
  const auto prog = make_program("gsmencode");
  TraceGenerator gen(prog, 9);
  int taken = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (gen.next().taken_branch() != nullptr) ++taken;
  // One loop-end taken branch per body (~body_size instructions) plus a
  // few mid-branches.
  const double body = static_cast<double>(n) / taken;
  EXPECT_GT(body, 4.0);
  EXPECT_LT(body, 40.0);
}

/// FNV-1a over the eight little-endian bytes of `v`.
void fnv1a_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

/// Digest of the first `count` instructions the generator retires: each
/// contributes its PC, each data address, its taken flag and its op count.
std::uint64_t stream_digest(const char* program, std::uint64_t seed,
                            int count) {
  TraceGenerator gen(make_program(program), seed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < count; ++i) {
    const SyntheticProgram::Step& step = gen.peek();
    fnv1a_mix(h, gen.peek_pc());
    const bool taken =
        gen.retire([&](std::uint64_t addr) { fnv1a_mix(h, addr); }) != 0;
    fnv1a_mix(h, taken ? 1 : 0);
    fnv1a_mix(h, step.op_count);
  }
  return h;
}

/// Checks that next() patches what peek() and retire() report over
/// `count` instructions of two generators with the same seed.
void expect_next_matches_retire(
    const std::shared_ptr<const SyntheticProgram>& prog, int count) {
  TraceGenerator by_next(prog, 17), by_retire(prog, 17);
  for (int i = 0; i < count; ++i) {
    const Instruction instr = by_next.next();
    ASSERT_EQ(instr.pc(), by_retire.peek_pc()) << i;
    ASSERT_EQ(instr.op_count(), by_retire.peek().op_count) << i;
    std::vector<std::uint64_t> addrs;
    const std::uint32_t taken = by_retire.retire(
        [&](std::uint64_t addr) { addrs.push_back(addr); });
    std::size_t mem = 0;
    unsigned patch = 0;
    for (const Operation& op : instr) {
      if (is_memory(op.kind)) {
        ASSERT_LT(mem, addrs.size()) << i;
        EXPECT_EQ(op.addr, addrs[mem++]) << i;
        ++patch;
      } else if (op.kind == OpKind::kBranch) {
        EXPECT_EQ(op.taken, ((taken >> patch++) & 1u) != 0) << i;
      } else {
        EXPECT_EQ(op.addr, 0u) << i;
        EXPECT_FALSE(op.taken) << i;
      }
    }
    EXPECT_EQ(mem, addrs.size()) << i;
  }
  EXPECT_EQ(by_next.instructions_emitted(), by_retire.instructions_emitted());
}

TEST(TraceGenerator, NextPatchesWhatRetireDraws) {
  // next() is built on peek() and retire(), so both ways of reading the
  // stream see the same draws; this pins how next() writes them back.
  for (const BenchmarkProfile& p : table1_profiles())
    expect_next_matches_retire(make_program(p.name.c_str()), 3000);
  // Hand-written code may hold one branch per cluster in one
  // instruction; each gets its own direction.
  expect_next_matches_retire(
      parse_program(".machine clusters=4 issue=4\n.midtaken 0.5\n"
                    ".loop trips=3 miss=0.5 code=0x10000 "
                    "hot=0x20000000+4096 cold=0x40000000\n"
                    "{ c0.3 br ; c0.2 ld ; c1.3 br ; c1.2 st }\n"
                    "{ c2.2 ld ; c0.3 br }\n.endloop\n",
                    kM),
      3000);
}

TEST(TraceGenerator, StreamDigestsArePinnedDrawForDraw) {
  // Every simulated number starts from these streams: a generator change
  // that moves a single random draw, address or branch direction shows
  // up here, named by program, before it reaches a figure's digest.
  const std::map<std::string, std::uint64_t> golden = {
      {"mcf", 0x0fe44e36bbeabba4ULL},
      {"bzip2", 0x772c32d96736a485ULL},
      {"blowfish", 0x18e15cf97251c0d4ULL},
      {"gsmencode", 0x0879bef5daebc70fULL},
      {"g721encode", 0x899118c9c58e853fULL},
      {"g721decode", 0x6a4857166101486cULL},
      {"cjpeg", 0xfeed4c6231da199aULL},
      {"djpeg", 0x1e8c58c651fa284fULL},
      {"imgpipe", 0xb63496c6521fbc34ULL},
      {"x264", 0xde5c92ed74ee2700ULL},
      {"idct", 0xf4c196f066583566ULL},
      {"colorspace", 0xf3579b6629879c5dULL},
  };
  ASSERT_EQ(golden.size(), table1_profiles().size());
  for (const BenchmarkProfile& p : table1_profiles()) {
    const std::uint64_t digest = stream_digest(p.name.c_str(), 7, 200000);
    EXPECT_EQ(digest, golden.at(p.name))
        << p.name << ": got 0x" << std::hex << digest;
  }
}

// The generator draws through Bernoulli thresholds: the same values and
// the same answers as next_bool(double), including the probabilities
// that draw nothing (p <= 0, p >= 1) and NaN, which draws and says no.
TEST(Xoshiro, IntegerThresholdDrawMatchesNextBool) {
  std::vector<double> ps = {-1.0, -0.0, 0.0, 0x1p-60, 0x1p-53, 0.25,
                            1.0 - 0x1p-53, 1.0, 2.0, std::nan("")};
  for (const BenchmarkProfile& p : table1_profiles()) {
    ps.push_back(p.mid_branch_taken);
    const SyntheticProgram prog(p, kM);
    for (const auto& loop : prog.loops()) ps.push_back(loop.miss_frac);
  }
  for (const double p : ps) {
    Xoshiro256 by_double(0xB0B);
    Xoshiro256 by_threshold(0xB0B);
    const Bernoulli compiled(p);
    for (int i = 0; i < 100000; ++i)
      ASSERT_EQ(by_threshold.next_bool(compiled), by_double.next_bool(p))
          << "p = " << std::hexfloat << p << ", draw " << i;
    EXPECT_TRUE(by_threshold == by_double) << "p = " << std::hexfloat << p;
  }
}

TEST(TraceGenerator, ClusterHomesVaryAcrossLoops) {
  // CSMT depends on different loops anchoring to different clusters.
  const auto prog = make_program("mcf");
  std::map<std::uint32_t, int> mask_census;
  for (const auto& loop : prog->loops()) {
    std::uint32_t combined = 0;
    for (const auto& step : loop.steps)
      combined |= step.footprint.cluster_mask();
    ++mask_census[combined];
  }
  // At least two distinct home-cluster patterns across the 12 loops.
  EXPECT_GE(mask_census.size(), 2u);
}

}  // namespace
}  // namespace cvmt
