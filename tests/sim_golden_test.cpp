// Golden bit-identity of run_simulation across the hot-path variants:
// the compiled MergePlan evaluator plus stall fast-forward must reproduce
// the reference recursive-tree, cycle-stepped simulation exactly — every
// counter, not just IPC — for every paper scheme and priority policy; and
// StatsLevel::kFast must agree with kFull on every shared result field.
// Session runs are pinned here too: whatever ran on a session before, its
// run equals run_simulation for every paper scheme x policy, including
// mixed stats levels and eval modes on one session.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "exp/params.hpp"
#include "sim/session.hpp"
#include "testgen/oracle.hpp"

namespace cvmt {
namespace {

const MachineConfig kM = MachineConfig::vex4x4();

std::shared_ptr<const SyntheticProgram> program(std::string_view name) {
  return ArtifactCache::global().program(name, kM);
}

std::vector<std::shared_ptr<const SyntheticProgram>> programs() {
  static const std::vector<std::shared_ptr<const SyntheticProgram>> progs =
      {program("mcf"), program("djpeg"), program("idct"), program("x264")};
  return progs;
}

SimConfig golden_config() {
  SimConfig cfg;
  cfg.instruction_budget = 2'500;
  cfg.timeslice_cycles = 600;
  return cfg;
}

TEST(SimGolden, PlanAndFastForwardAreBitIdenticalToReference) {
  std::vector<std::string> schemes;
  for (const Scheme& s : Scheme::paper_schemes_4t())
    schemes.push_back(s.name());
  schemes.emplace_back("IMT4");
  schemes.emplace_back("1C");

  for (const std::string& name : schemes) {
    for (const PriorityPolicy policy :
         {PriorityPolicy::kRoundRobin, PriorityPolicy::kFixed,
          PriorityPolicy::kStickyOnStall}) {
      const Scheme scheme = Scheme::parse(name);
      SimConfig reference = golden_config();
      reference.priority = policy;
      reference.eval_mode = EvalMode::kTreeReference;
      reference.stall_fast_forward = false;
      SimConfig rebuilt = golden_config();
      rebuilt.priority = policy;
      rebuilt.eval_mode = EvalMode::kPlan;
      rebuilt.stall_fast_forward = true;

      const SimResult a = run_simulation(scheme, programs(), reference);
      const SimResult b = run_simulation(scheme, programs(), rebuilt);
      EXPECT_EQ(compare_sim_results(a, b, /*compare_merge_stats=*/true), "")
          << name << "/policy" << static_cast<int>(policy);
    }
  }

  // Fig 10's configuration at --fast scale (workload LMHH, long enough
  // for many timeslices and cache warm-up): the reference against the
  // sweep default, which also switches to fast stats, so every field the
  // two stats levels share must agree.
  std::vector<std::shared_ptr<const SyntheticProgram>> lmhh;
  for (const Workload& w : table2_workloads())
    if (w.ilp_combo == "LMHH")
      for (const std::string& b : w.benchmarks)
        lmhh.push_back(program(b));
  ASSERT_EQ(lmhh.size(), 4u);
  SimConfig reference;
  reference.instruction_budget = kFastInstructionBudget;
  reference.timeslice_cycles = kFastTimesliceCycles;
  reference.eval_mode = EvalMode::kTreeReference;
  reference.stats = StatsLevel::kFull;
  reference.stall_fast_forward = false;
  SimConfig sweep_default = reference;
  sweep_default.eval_mode = EvalMode::kPlan;
  sweep_default.stats = StatsLevel::kFast;
  sweep_default.stall_fast_forward = true;
  for (const char* name : {"3CCC", "2SC3", "3SSS", "C4"}) {
    const Scheme scheme = Scheme::parse(name);
    EXPECT_EQ(compare_sim_results(run_simulation(scheme, lmhh, reference),
                                  run_simulation(scheme, lmhh, sweep_default),
                                  /*compare_merge_stats=*/false),
              "")
        << "LMHH/" << name;
  }
}

TEST(SimGolden, SingleThreadFastForwardIsBitIdentical) {
  // Single-thread runs have the longest all-stalled windows (every miss
  // is a full stall), so they stress the jump accounting hardest.
  SimConfig stepped = golden_config();
  stepped.stall_fast_forward = false;
  SimConfig jumped = golden_config();
  jumped.stall_fast_forward = true;
  const std::vector<std::shared_ptr<const SyntheticProgram>> progs = {
      program("mcf")};
  const SimResult a = run_simulation(Scheme::single_thread(), progs,
                                     stepped);
  const SimResult b = run_simulation(Scheme::single_thread(), progs,
                                     jumped);
  EXPECT_EQ(compare_sim_results(a, b, /*compare_merge_stats=*/true), "");
  EXPECT_GT(a.idle_cycles, 0u);  // the scenario actually exercises stalls
}

TEST(SimGolden, FastStatsAgreeOnAllSharedFields) {
  for (const char* name : {"3CCC", "2SC3", "3SSS", "C4", "2CS"}) {
    SimConfig full = golden_config();
    full.stats = StatsLevel::kFull;
    SimConfig fast = golden_config();
    fast.stats = StatsLevel::kFast;
    const SimResult a = run_simulation(Scheme::parse(name), programs(),
                                       full);
    const SimResult b = run_simulation(Scheme::parse(name), programs(),
                                       fast);
    // Shared fields identical; merge statistics intentionally differ
    // (fast mode leaves them zeroed).
    EXPECT_EQ(compare_sim_results(a, b, /*compare_merge_stats=*/false), "")
        << name;
    EXPECT_GT(a.issued_per_cycle.total(), 0u);
    EXPECT_EQ(b.issued_per_cycle.total(), 0u);
    std::uint64_t fast_attempts = 0;
    for (const auto& node : b.merge_nodes) fast_attempts += node.attempts;
    EXPECT_EQ(fast_attempts, 0u);
    for (const auto& node : b.merge_nodes)
      EXPECT_FALSE(node.label.empty());  // labels survive in fast mode
  }
}

TEST(SimGolden, FastForwardRespectsMaxCyclesAndTimeslices) {
  SimConfig cfg = golden_config();
  cfg.max_cycles = 1'000;
  const std::vector<std::shared_ptr<const SyntheticProgram>> progs = {
      program("mcf")};
  const SimResult r =
      run_simulation(Scheme::single_thread(), progs, cfg);
  EXPECT_EQ(r.cycles, 1'000u);  // the jump never overshoots the guard
  // Reschedule points are never skipped: every timeslice boundary inside
  // the run produced a timeslice.
  EXPECT_EQ(r.os.timeslices,
            (r.cycles + cfg.timeslice_cycles - 1) / cfg.timeslice_cycles);
}

TEST(SimGolden, InstanceResetAndRerunMatchesFreshConstruction) {
  // Named after the reusable instance's reset-and-rerun contract it once
  // pinned. Over every paper scheme x policy, one session runs each point
  // twice, with the whole grid in between, and both runs equal
  // run_simulation.
  std::vector<std::string> schemes;
  for (const Scheme& s : Scheme::paper_schemes_4t())
    schemes.push_back(s.name());
  schemes.emplace_back("IMT4");

  ArtifactCache cache;
  SimSession session(cache);
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& name : schemes) {
      for (const PriorityPolicy policy :
           {PriorityPolicy::kRoundRobin, PriorityPolicy::kFixed,
            PriorityPolicy::kStickyOnStall}) {
        SimConfig cfg = golden_config();
        cfg.priority = policy;
        const Scheme scheme = Scheme::parse(name);
        EXPECT_EQ(compare_sim_results(run_simulation(scheme, programs(), cfg),
                                      session.run(scheme, programs(), cfg),
                                      /*compare_merge_stats=*/true),
                  "")
            << name << "/policy" << static_cast<int>(policy) << "/pass"
            << pass;
      }
    }
  }
}

TEST(SimGolden, OneInstanceSurvivesMixedStatsLevelsAndEvalModes) {
  // The fuzz oracle's usage pattern: one session sweeps every hot-path
  // configuration. Each run must match its own run_simulation result —
  // no stats residue, no evaluator cross-talk.
  ArtifactCache cache;
  SimSession session(cache);
  struct Mode {
    StatsLevel stats;
    EvalMode eval;
    bool fast_forward;
  };
  const Mode modes[] = {
      {StatsLevel::kFull, EvalMode::kPlan, true},
      {StatsLevel::kFast, EvalMode::kPlan, true},
      {StatsLevel::kFull, EvalMode::kTreeReference, false},
      {StatsLevel::kFull, EvalMode::kPlan, false},
      {StatsLevel::kFull, EvalMode::kPlan, true},  // back to the baseline
      {StatsLevel::kFast, EvalMode::kTreeReference, true},
  };
  for (const char* name : {"2SC3", "2CS", "IMT4"}) {
    const Scheme scheme = Scheme::parse(name);
    for (std::size_t m = 0; m < std::size(modes); ++m) {
      SimConfig cfg = golden_config();
      cfg.stats = modes[m].stats;
      cfg.eval_mode = modes[m].eval;
      cfg.stall_fast_forward = modes[m].fast_forward;
      EXPECT_EQ(compare_sim_results(run_simulation(scheme, programs(), cfg),
                                    session.run(scheme, programs(), cfg),
                                    /*compare_merge_stats=*/true),
                "")
          << name << "/mode" << m;
    }
  }
}

TEST(SimGolden, ReseededRunsReproduceBitIdentically) {
  // Every run starts at rotation zero: two runs with identical seeds
  // share every counter.
  SimConfig cfg = golden_config();
  cfg.priority = PriorityPolicy::kStickyOnStall;
  const SimResult a = run_simulation(Scheme::parse("2SC3"), programs(),
                                     cfg);
  const SimResult b = run_simulation(Scheme::parse("2SC3"), programs(),
                                     cfg);
  EXPECT_EQ(compare_sim_results(a, b, /*compare_merge_stats=*/true), "");
}

}  // namespace
}  // namespace cvmt
