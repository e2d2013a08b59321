// Statistical property tests of the synthetic substrate: for every
// Table 1 benchmark, the emitted dynamic stream must track the profile's
// op mix, the calibrated miss mix, and the intended locality structure.
#include <gtest/gtest.h>

#include <memory>

#include "mem/cache.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"

namespace cvmt {
namespace {

const MachineConfig kM = MachineConfig::vex4x4();

std::shared_ptr<const SyntheticProgram> program(std::string_view name) {
  return ArtifactCache::global().program(name, kM);
}

struct StreamStats {
  std::uint64_t instructions = 0;
  std::uint64_t non_bubble = 0;
  std::uint64_t ops = 0;
  std::uint64_t mem_ops = 0;
  std::uint64_t mul_ops = 0;
  std::uint64_t store_ops = 0;
  std::uint64_t branches = 0;
  std::uint64_t cold_accesses = 0;  // addresses in the streaming region
};

StreamStats run_stream(const char* name, int n) {
  TraceGenerator gen(program(name), 99);
  StreamStats s;
  for (int i = 0; i < n; ++i) {
    const Instruction instr = gen.next();
    ++s.instructions;
    if (!instr.empty()) ++s.non_bubble;
    s.ops += instr.op_count();
    for (const Operation& op : instr) {
      if (is_memory(op.kind)) {
        ++s.mem_ops;
        if (op.kind == OpKind::kStore) ++s.store_ops;
        // Map back into the program's address regions: the cold streams
        // start at 0x40000000.
        if (op.addr - gen.address_salt() >= 0x40000000ULL)
          ++s.cold_accesses;
      } else if (op.kind == OpKind::kMul) {
        ++s.mul_ops;
      } else if (op.kind == OpKind::kBranch) {
        ++s.branches;
      }
    }
  }
  return s;
}

class TraceStatsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TraceStatsTest, OpMixTracksProfile) {
  const BenchmarkProfile& p = profile_by_name(GetParam());
  const StreamStats s = run_stream(p.name.c_str(), 60'000);
  const double ops = static_cast<double>(s.ops);
  // Branch ops are injected on top of the sampled mix, so the sampled
  // fractions shrink slightly; allow a generous but meaningful band.
  EXPECT_NEAR(static_cast<double>(s.mem_ops) / ops, p.mem_op_frac,
              0.25 * p.mem_op_frac + 0.02)
      << p.name;
  if (p.mul_op_frac > 0.02) {
    EXPECT_NEAR(static_cast<double>(s.mul_ops) / ops, p.mul_op_frac,
                0.3 * p.mul_op_frac + 0.02)
        << p.name;
  }
  if (s.mem_ops > 0) {
    EXPECT_NEAR(static_cast<double>(s.store_ops) /
                    static_cast<double>(s.mem_ops),
                p.store_frac, 0.2)
        << p.name;
  }
}

TEST_P(TraceStatsTest, MeanOpsPerRealInstructionNearProfile) {
  const BenchmarkProfile& p = profile_by_name(GetParam());
  const StreamStats s = run_stream(p.name.c_str(), 60'000);
  const double mean_ops =
      static_cast<double>(s.ops) / static_cast<double>(s.non_bubble);
  // Clamping at 1 and the machine width skews wide/narrow profiles a bit.
  EXPECT_NEAR(mean_ops, p.mean_ops_per_instr,
              0.2 * p.mean_ops_per_instr + 0.3)
      << p.name;
}

TEST_P(TraceStatsTest, ColdMixMatchesCalibration) {
  const BenchmarkProfile& p = profile_by_name(GetParam());
  const auto prog = program(p.name);
  // Expected cold fraction = trip-weighted mean of per-loop miss_frac.
  double expect = 0.0, weight = 0.0;
  for (const auto& loop : prog->loops()) {
    expect += loop.miss_frac * static_cast<double>(loop.mem_ops) *
              loop.mean_trips;
    weight += static_cast<double>(loop.mem_ops) * loop.mean_trips;
  }
  expect = weight > 0 ? expect / weight : 0.0;
  const StreamStats s = run_stream(p.name.c_str(), 80'000);
  const double measured =
      s.mem_ops ? static_cast<double>(s.cold_accesses) /
                      static_cast<double>(s.mem_ops)
                : 0.0;
  EXPECT_NEAR(measured, expect, 0.25 * expect + 0.01) << p.name;
}

TEST_P(TraceStatsTest, HotWorkingSetStaysCacheResident) {
  const BenchmarkProfile& p = profile_by_name(GetParam());
  TraceGenerator gen(program(p.name), 5);
  SetAssocCache dcache(CacheConfig{});  // the paper's 64KB 4-way
  std::uint64_t hot_total = 0, hot_miss = 0;
  for (int i = 0; i < 100'000; ++i) {
    const Instruction instr = gen.next();
    for (const Operation& op : instr) {
      if (!is_memory(op.kind)) continue;
      const bool cold = op.addr - gen.address_salt() >= 0x40000000ULL;
      const bool hit = dcache.access(op.addr);
      if (!cold) {
        ++hot_total;
        hot_miss += hit ? 0u : 1u;
      }
    }
  }
  if (hot_total > 1000) {
    // After warm-up the hot region must be essentially resident.
    EXPECT_LT(static_cast<double>(hot_miss) /
                  static_cast<double>(hot_total),
              0.05)
        << p.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, TraceStatsTest,
    ::testing::Values("mcf", "bzip2", "blowfish", "gsmencode", "g721encode",
                      "g721decode", "cjpeg", "djpeg", "imgpipe", "x264",
                      "idct", "colorspace"));

TEST(TraceFairness, SymmetricThreadsGetEqualIssueShares) {
  // Round-robin rotation must not starve anyone: four copies of the same
  // benchmark under pure CSMT issue within a few percent of each other.
  const auto prog = program("g721encode");
  std::vector<std::shared_ptr<const SyntheticProgram>> progs(4, prog);
  SimConfig cfg;
  cfg.instruction_budget = 60'000;
  cfg.timeslice_cycles = 1ULL << 40;  // no OS interference
  const SimResult r = run_simulation(Scheme::parse("3CCC"), progs, cfg);
  std::uint64_t lo = ~0ull, hi = 0;
  for (const auto& t : r.threads) {
    lo = std::min(lo, t.stats.instructions);
    hi = std::max(hi, t.stats.instructions);
  }
  EXPECT_LT(static_cast<double>(hi - lo) / static_cast<double>(hi), 0.12);
}

}  // namespace
}  // namespace cvmt
