// Golden bit-identity of run_simulation across the hot-path variants:
// the compiled MergePlan evaluator plus stall fast-forward must reproduce
// the reference recursive-tree, cycle-stepped simulation exactly — every
// counter, not just IPC — for every paper scheme and priority policy; and
// StatsLevel::kFast must agree with kFull on every shared result field.
// The session-reuse contract is pinned here too: a reset SimInstance must
// replay bit-identically to fresh construction for every paper scheme x
// policy, including mixed stats levels and eval modes on one instance.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "exp/params.hpp"
#include "sim/session.hpp"

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

/// Field-by-field equality of two results, including per-thread stats,
/// cache counters, OS stats and merge-node labels; with
/// `compare_merge_stats`, also the issued histogram and merge-node
/// counters (the fields StatsLevel::kFast leaves empty).
void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& what, bool compare_merge_stats) {
  EXPECT_EQ(a.scheme, b.scheme) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.total_ops, b.total_ops) << what;
  EXPECT_EQ(a.total_instructions, b.total_instructions) << what;
  EXPECT_EQ(a.idle_cycles, b.idle_cycles) << what;
  EXPECT_DOUBLE_EQ(a.ipc, b.ipc) << what;
  ASSERT_EQ(a.threads.size(), b.threads.size()) << what;
  for (std::size_t t = 0; t < a.threads.size(); ++t) {
    const ThreadResult& ta = a.threads[t];
    const ThreadResult& tb = b.threads[t];
    EXPECT_EQ(ta.benchmark, tb.benchmark) << what;
    EXPECT_EQ(ta.instructions, tb.instructions) << what;
    EXPECT_EQ(ta.ops, tb.ops) << what;
    EXPECT_EQ(ta.stats.instructions, tb.stats.instructions) << what;
    EXPECT_EQ(ta.stats.bubbles, tb.stats.bubbles) << what;
    EXPECT_EQ(ta.stats.ops, tb.stats.ops) << what;
    EXPECT_EQ(ta.stats.taken_branches, tb.stats.taken_branches) << what;
    EXPECT_EQ(ta.stats.dcache_stall_cycles, tb.stats.dcache_stall_cycles)
        << what;
    EXPECT_EQ(ta.stats.icache_stall_cycles, tb.stats.icache_stall_cycles)
        << what;
    EXPECT_EQ(ta.stats.branch_stall_cycles, tb.stats.branch_stall_cycles)
        << what;
    EXPECT_EQ(ta.stats.bank_conflict_cycles, tb.stats.bank_conflict_cycles)
        << what;
  }
  EXPECT_EQ(a.icache.hits, b.icache.hits) << what;
  EXPECT_EQ(a.icache.total, b.icache.total) << what;
  EXPECT_EQ(a.dcache.hits, b.dcache.hits) << what;
  EXPECT_EQ(a.dcache.total, b.dcache.total) << what;
  EXPECT_EQ(a.l2.hits, b.l2.hits) << what;
  EXPECT_EQ(a.l2.total, b.l2.total) << what;
  EXPECT_EQ(a.os.context_switches, b.os.context_switches) << what;
  EXPECT_EQ(a.os.timeslices, b.os.timeslices) << what;
  ASSERT_EQ(a.merge_nodes.size(), b.merge_nodes.size()) << what;
  for (std::size_t i = 0; i < a.merge_nodes.size(); ++i) {
    EXPECT_EQ(a.merge_nodes[i].label, b.merge_nodes[i].label) << what;
    EXPECT_EQ(a.merge_nodes[i].kind, b.merge_nodes[i].kind) << what;
  }
  if (!compare_merge_stats) return;
  ASSERT_EQ(a.issued_per_cycle.num_buckets(), b.issued_per_cycle.num_buckets())
      << what;
  for (std::size_t k = 0; k < a.issued_per_cycle.num_buckets(); ++k)
    EXPECT_EQ(a.issued_per_cycle.bucket(k), b.issued_per_cycle.bucket(k))
        << what << " bucket " << k;
  for (std::size_t i = 0; i < a.merge_nodes.size(); ++i) {
    EXPECT_EQ(a.merge_nodes[i].attempts, b.merge_nodes[i].attempts)
        << what << " node " << i;
    EXPECT_EQ(a.merge_nodes[i].rejects, b.merge_nodes[i].rejects)
        << what << " node " << i;
  }
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
      expect_identical(a, b,
                       name + "/policy" +
                           std::to_string(static_cast<int>(policy)),
                       /*compare_merge_stats=*/true);
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
    expect_identical(run_simulation(scheme, lmhh, reference),
                     run_simulation(scheme, lmhh, sweep_default),
                     std::string("LMHH/") + name,
                     /*compare_merge_stats=*/false);
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
  expect_identical(a, b, "1T", /*compare_merge_stats=*/true);
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
    expect_identical(a, b, name, /*compare_merge_stats=*/false);
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
  // The session layer's core invariant, over every paper scheme x policy:
  // SimInstance::reset() + rerun (and the implicit reset at each run())
  // reproduces the freshly-constructed run_simulation result exactly.
  std::vector<std::string> schemes;
  for (const Scheme& s : Scheme::paper_schemes_4t())
    schemes.push_back(s.name());
  schemes.emplace_back("IMT4");

  ArtifactCache cache;
  for (const std::string& name : schemes) {
    for (const PriorityPolicy policy :
         {PriorityPolicy::kRoundRobin, PriorityPolicy::kFixed,
          PriorityPolicy::kStickyOnStall}) {
      SimConfig cfg = golden_config();
      cfg.priority = policy;
      const Scheme scheme = Scheme::parse(name);
      const SimResult fresh = run_simulation(scheme, programs(), cfg);

      SimInstance instance(cache.scheme(scheme, kM), cfg);
      const SimResult first = instance.run(programs());
      instance.reset();
      const SimResult rerun = instance.run(programs());
      const std::string what =
          name + "/policy" + std::to_string(static_cast<int>(policy));
      expect_identical(fresh, first, what + "/first",
                       /*compare_merge_stats=*/true);
      expect_identical(fresh, rerun, what + "/reset-rerun",
                       /*compare_merge_stats=*/true);
    }
  }
}

TEST(SimGolden, OneInstanceSurvivesMixedStatsLevelsAndEvalModes) {
  // The fuzz oracle's usage pattern: one instance sweeps every hot-path
  // configuration. Each run must match its own fresh-construction result
  // — no stats residue, no evaluator cross-talk.
  ArtifactCache cache;
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
    SimInstance instance(cache.scheme(scheme, kM), golden_config());
    for (std::size_t m = 0; m < std::size(modes); ++m) {
      SimConfig cfg = golden_config();
      cfg.stats = modes[m].stats;
      cfg.eval_mode = modes[m].eval;
      cfg.stall_fast_forward = modes[m].fast_forward;
      instance.set_config(cfg);
      const SimResult reused = instance.run(programs());
      const SimResult fresh = run_simulation(scheme, programs(), cfg);
      expect_identical(fresh, reused,
                       std::string(name) + "/mode" + std::to_string(m),
                       /*compare_merge_stats=*/true);
    }
  }
}

TEST(SimGolden, ReseededRunsReproduceBitIdentically) {
  // End-to-end cover for MergeEngine::reset_rotation semantics: two
  // fresh runs with identical seeds share every counter.
  SimConfig cfg = golden_config();
  cfg.priority = PriorityPolicy::kStickyOnStall;
  const SimResult a = run_simulation(Scheme::parse("2SC3"), programs(),
                                     cfg);
  const SimResult b = run_simulation(Scheme::parse("2SC3"), programs(),
                                     cfg);
  expect_identical(a, b, "reseeded", /*compare_merge_stats=*/true);
}

}  // namespace
}  // namespace cvmt
