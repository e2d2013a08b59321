// Integration tests of the simulator stack: thread contexts, the
// multithreaded core, the OS scheduler and end-to-end invariants.
#include <gtest/gtest.h>

#include <memory>

#include "sim/session.hpp"

namespace cvmt {
namespace {

const MachineConfig kM = MachineConfig::vex4x4();

SimConfig fast_config() {
  SimConfig cfg;
  cfg.instruction_budget = 30'000;
  cfg.timeslice_cycles = 5'000;
  return cfg;
}

std::vector<std::shared_ptr<const SyntheticProgram>> programs_of(
    const MachineConfig& machine, std::initializer_list<const char*> names) {
  std::vector<std::shared_ptr<const SyntheticProgram>> out;
  for (const char* n : names)
    out.push_back(ArtifactCache::global().program(n, machine));
  return out;
}

TEST(Simulation, DeterministicAcrossRuns) {
  const auto progs = programs_of(kM, {"mcf", "djpeg", "idct", "bzip2"});
  const SimConfig cfg = fast_config();
  const SimResult a = run_simulation(Scheme::parse("3SCC"), progs, cfg);
  const SimResult b = run_simulation(Scheme::parse("3SCC"), progs, cfg);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.total_instructions, b.total_instructions);
}

TEST(Simulation, OsSeedChangesScheduleButRunsComplete) {
  const auto progs = programs_of(kM, {"mcf", "djpeg", "idct", "bzip2"});
  SimConfig cfg = fast_config();
  // Long enough that the random schedule composition averages out (the
  // run samples many timeslices of each benchmark mix).
  cfg.instruction_budget = 120'000;
  cfg.timeslice_cycles = 2'000;
  const SimResult a = run_simulation(Scheme::parse("1S"), progs, cfg);
  cfg.os_seed ^= 0xDEAD;
  const SimResult b = run_simulation(Scheme::parse("1S"), progs, cfg);
  EXPECT_GT(a.total_ops, 0u);
  EXPECT_GT(b.total_ops, 0u);
  // Different schedules, same machine: IPC close but not identical.
  EXPECT_NEAR(a.ipc, b.ipc, 0.30 * a.ipc);
}

TEST(Simulation, IpcNeverExceedsIssueWidth) {
  const auto progs =
      programs_of(kM, {"colorspace", "idct", "imgpipe", "x264"});
  const SimResult r =
      run_simulation(Scheme::parse("3SSS"), progs, fast_config());
  EXPECT_LE(r.ipc, static_cast<double>(kM.total_issue_width()));
  EXPECT_GT(r.ipc, 0.0);
}

TEST(Simulation, StopsWhenFirstThreadFinishesBudget) {
  const auto progs = programs_of(kM, {"idct", "mcf"});
  SimConfig cfg = fast_config();
  cfg.instruction_budget = 5'000;
  const SimResult r = run_simulation(Scheme::parse("1S"), progs, cfg);
  std::uint64_t max_instrs = 0;
  for (const auto& t : r.threads)
    max_instrs = std::max(max_instrs, t.stats.instructions);
  EXPECT_EQ(max_instrs, cfg.instruction_budget);
}

TEST(Simulation, MaxCyclesGuardStopsRun) {
  const auto progs = programs_of(kM, {"mcf"});
  SimConfig cfg = fast_config();
  cfg.max_cycles = 1'000;
  const SimResult r = run_simulation(Scheme::single_thread(), progs, cfg);
  EXPECT_EQ(r.cycles, 1'000u);
}

TEST(Simulation, PerfectMemoryNeverSlower) {
  const auto progs = programs_of(kM, {"mcf", "cjpeg", "x264", "blowfish"});
  SimConfig real_cfg = fast_config();
  SimConfig perfect_cfg = fast_config();
  perfect_cfg.mem.perfect = true;
  const double real = run_simulation(Scheme::parse("3SSS"), progs,
                                     real_cfg).ipc;
  const double perfect =
      run_simulation(Scheme::parse("3SSS"), progs, perfect_cfg).ipc;
  EXPECT_GE(perfect, real * 0.98);
}

TEST(Simulation, MoreHardwareThreadsHelp) {
  const auto progs = programs_of(kM, {"mcf", "blowfish", "x264", "idct"});
  const SimConfig cfg = fast_config();
  const double one =
      run_simulation(Scheme::single_thread(), progs, cfg).ipc;
  const double two = run_simulation(Scheme::parse("1S"), progs, cfg).ipc;
  const double four = run_simulation(Scheme::parse("3SSS"), progs, cfg).ipc;
  EXPECT_GT(two, one * 1.1);
  EXPECT_GT(four, two * 1.1);
}

TEST(Simulation, SmtBeatsCsmtWhichBeatsNothing) {
  const auto progs = programs_of(kM, {"mcf", "blowfish", "x264", "idct"});
  const SimConfig cfg = fast_config();
  const double smt = run_simulation(Scheme::parse("3SSS"), progs, cfg).ipc;
  const double csmt = run_simulation(Scheme::parse("3CCC"), progs, cfg).ipc;
  const double single =
      run_simulation(Scheme::single_thread(), progs, cfg).ipc;
  EXPECT_GE(smt, csmt * 0.999);
  EXPECT_GT(csmt, single);
}

TEST(Simulation, MixedSchemesLandBetweenExtremes) {
  const auto progs =
      programs_of(kM, {"gsmencode", "g721encode", "imgpipe", "colorspace"});
  const SimConfig cfg = fast_config();
  const double smt = run_simulation(Scheme::parse("3SSS"), progs, cfg).ipc;
  const double csmt = run_simulation(Scheme::parse("3CCC"), progs, cfg).ipc;
  const double mixed = run_simulation(Scheme::parse("2SC3"), progs, cfg).ipc;
  EXPECT_GE(mixed, csmt * 0.98);
  EXPECT_LE(mixed, smt * 1.02);
}

TEST(Simulation, SchemeEquivalencesHoldEndToEnd) {
  // C4 == 3CCC and 2SC3 == 3SCC must be cycle-exact in full runs, not just
  // in the engine micro-tests (paper: "identical in terms of performance").
  const auto progs = programs_of(kM, {"mcf", "cjpeg", "idct", "bzip2"});
  const SimConfig cfg = fast_config();
  const SimResult c4 = run_simulation(Scheme::parse("C4"), progs, cfg);
  const SimResult ccc = run_simulation(Scheme::parse("3CCC"), progs, cfg);
  EXPECT_EQ(c4.cycles, ccc.cycles);
  EXPECT_EQ(c4.total_ops, ccc.total_ops);
  const SimResult sc3 = run_simulation(Scheme::parse("2SC3"), progs, cfg);
  const SimResult scc = run_simulation(Scheme::parse("3SCC"), progs, cfg);
  EXPECT_EQ(sc3.cycles, scc.cycles);
  EXPECT_EQ(sc3.total_ops, scc.total_ops);
}

TEST(Simulation, ContextSwitchesHappenAtTimeslices) {
  const auto progs =
      programs_of(kM, {"mcf", "bzip2", "blowfish", "gsmencode"});
  SimConfig cfg = fast_config();
  cfg.timeslice_cycles = 1'000;
  const SimResult r = run_simulation(Scheme::parse("1S"), progs, cfg);
  // 4 software threads on 2 contexts: every timeslice reschedules.
  EXPECT_GE(r.os.timeslices, r.cycles / cfg.timeslice_cycles);
  EXPECT_GT(r.os.context_switches, 0u);
}

TEST(Simulation, AllSoftwareThreadsMakeProgressUnderRotation) {
  const auto progs =
      programs_of(kM, {"mcf", "bzip2", "blowfish", "gsmencode"});
  SimConfig cfg = fast_config();
  cfg.timeslice_cycles = 2'000;
  const SimResult r = run_simulation(Scheme::parse("3CCC"), progs, cfg);
  for (const auto& t : r.threads)
    EXPECT_GT(t.stats.instructions, 0u) << t.benchmark;
}

TEST(Simulation, ResultAccountingIsConsistent) {
  const auto progs = programs_of(kM, {"g721encode", "g721decode"});
  const SimResult r =
      run_simulation(Scheme::parse("1S"), progs, fast_config());
  std::uint64_t thread_ops = 0, thread_instrs = 0;
  for (const auto& t : r.threads) {
    thread_ops += t.stats.ops;
    thread_instrs += t.stats.instructions;
  }
  EXPECT_EQ(thread_ops, r.total_ops);
  EXPECT_EQ(thread_instrs, r.total_instructions);
  EXPECT_NEAR(r.ipc,
              static_cast<double>(r.total_ops) /
                  static_cast<double>(r.cycles),
              1e-12);
}

TEST(Simulation, MergeStatsAreExposed) {
  const auto progs = programs_of(kM, {"mcf", "djpeg", "idct", "bzip2"});
  const SimResult r =
      run_simulation(Scheme::parse("3SCC"), progs, fast_config());
  ASSERT_EQ(r.merge_nodes.size(), 3u);  // S, C, C blocks
  std::uint64_t attempts = 0;
  for (const auto& n : r.merge_nodes) attempts += n.attempts;
  EXPECT_GT(attempts, 0u);
  EXPECT_GT(r.issued_per_cycle.total(), 0u);
}

TEST(Simulation, SerializedMissesAreSlowerOrEqual) {
  const auto progs =
      programs_of(kM, {"colorspace", "mcf", "cjpeg", "imgpipe"});
  SimConfig ser = fast_config();
  ser.miss_policy = MissPolicy::kSerialized;
  SimConfig ovl = fast_config();
  ovl.miss_policy = MissPolicy::kOverlapped;
  const double ipc_ser =
      run_simulation(Scheme::parse("3SSS"), progs, ser).ipc;
  const double ipc_ovl =
      run_simulation(Scheme::parse("3SSS"), progs, ovl).ipc;
  EXPECT_GE(ipc_ovl, ipc_ser * 0.999);
}

TEST(Simulation, PrivateCachesRemoveInterThreadConflicts) {
  const auto progs =
      programs_of(kM, {"mcf", "cjpeg", "colorspace", "bzip2"});
  SimConfig shared = fast_config();
  SimConfig priv = fast_config();
  priv.mem.sharing = CacheSharing::kPrivate;
  const SimResult rs = run_simulation(Scheme::parse("3SSS"), progs, shared);
  const SimResult rp = run_simulation(Scheme::parse("3SSS"), progs, priv);
  EXPECT_GE(rp.dcache.rate(), rs.dcache.rate() - 0.02);
}

TEST(Simulation, BaselineLadderIsOrdered) {
  // Single-thread < BMT/IMT (stall hiding only) < CSMT (adds cluster
  // packing) <= SMT (adds operation packing): the related-work ladder.
  const auto progs = programs_of(kM, {"mcf", "blowfish", "cjpeg", "idct"});
  SimConfig cfg = fast_config();
  const double single =
      run_simulation(Scheme::single_thread(), progs, cfg).ipc;
  SimConfig bmt_cfg = cfg;
  bmt_cfg.priority = PriorityPolicy::kStickyOnStall;
  const double bmt = run_simulation(Scheme::imt(4), progs, bmt_cfg).ipc;
  const double imt = run_simulation(Scheme::imt(4), progs, cfg).ipc;
  const double csmt = run_simulation(Scheme::parse("3CCC"), progs, cfg).ipc;
  const double smt = run_simulation(Scheme::parse("3SSS"), progs, cfg).ipc;
  EXPECT_GT(bmt, single * 1.05);
  EXPECT_GT(imt, single * 1.05);
  EXPECT_GT(csmt, std::max(imt, bmt));
  EXPECT_GE(smt, csmt);
}

TEST(Simulation, GenericMachineShapesRun) {
  for (const auto& [clusters, width] :
       {std::pair{2, 8}, std::pair{8, 2}, std::pair{2, 4}}) {
    const MachineConfig machine = MachineConfig::clustered(clusters, width);
    const auto progs = programs_of(machine, {"mcf", "djpeg"});
    SimConfig cfg = fast_config();
    cfg.machine = machine;
    cfg.instruction_budget = 10'000;
    const SimResult r = run_simulation(Scheme::parse("1S"), progs, cfg);
    EXPECT_GT(r.ipc, 0.0) << clusters << "x" << width;
    EXPECT_LE(r.ipc, machine.total_issue_width()) << clusters << "x"
                                                  << width;
  }
}

TEST(Simulation, SwitchPoliciesRunDeterministicallyAndDiffer) {
  // 4 software threads on 2 contexts force real timeslice decisions.
  const auto progs =
      programs_of(kM, {"mcf", "bzip2", "blowfish", "gsmencode"});
  SimConfig cfg = fast_config();
  cfg.timeslice_cycles = 1'000;
  std::vector<std::uint64_t> cycles;
  for (const SwitchPolicyKind policy :
       {SwitchPolicyKind::kRandomTimeslice, SwitchPolicyKind::kPrestall,
        SwitchPolicyKind::kPoststall}) {
    cfg.switch_policy = policy;
    const SimResult a = run_simulation(Scheme::parse("1S"), progs, cfg);
    const SimResult b = run_simulation(Scheme::parse("1S"), progs, cfg);
    EXPECT_EQ(a.cycles, b.cycles) << to_string(policy);
    EXPECT_EQ(a.total_ops, b.total_ops) << to_string(policy);
    // Every software thread still progresses under every policy.
    for (const auto& t : a.threads)
      EXPECT_GT(t.stats.instructions, 0u)
          << to_string(policy) << " starved " << t.benchmark;
    cycles.push_back(a.cycles);
  }
  // The policies genuinely reschedule differently (same workload, same
  // budget, different interleavings -> different cycle counts).
  EXPECT_FALSE(cycles[0] == cycles[1] && cycles[1] == cycles[2]);
}

TEST(Simulation, HeterogeneousMachineRunsEndToEnd) {
  const ClusterShape shapes[4] = {
      {4, 0b0011, 0b0100, 0b1000},
      {4, 0b0011, 0b0100, 0b1000},
      {2, 0b01, 0b10, 0b10},
      {2, 0b00, 0b10, 0b10},
  };
  const MachineConfig het = MachineConfig::heterogeneous_of(shapes, 4);
  const auto progs = programs_of(het, {"mcf", "djpeg", "idct", "bzip2"});
  SimConfig cfg = fast_config();
  cfg.machine = het;
  cfg.instruction_budget = 10'000;
  for (const char* scheme : {"1S", "3CCC", "3SSS"}) {
    const SimResult a = run_simulation(Scheme::parse(scheme), progs, cfg);
    const SimResult b = run_simulation(Scheme::parse(scheme), progs, cfg);
    EXPECT_GT(a.ipc, 0.0) << scheme;
    EXPECT_LE(a.ipc, het.total_issue_width()) << scheme;
    EXPECT_EQ(a.cycles, b.cycles) << scheme;
  }
}

TEST(Simulation, BankConflictsSlowDownMergedMemoryTraffic) {
  const auto progs =
      programs_of(kM, {"mcf", "cjpeg", "colorspace", "imgpipe"});
  SimConfig flat = fast_config();
  SimConfig banked = fast_config();
  banked.mem.dcache_banks = 2;
  banked.mem.bank_conflict_penalty = 4;
  const SimResult rf = run_simulation(Scheme::parse("3SSS"), progs, flat);
  const SimResult rb = run_simulation(Scheme::parse("3SSS"), progs, banked);
  std::uint64_t conflict_cycles = 0;
  for (const auto& t : rb.threads)
    conflict_cycles += t.stats.bank_conflict_cycles;
  for (const auto& t : rf.threads)
    EXPECT_EQ(t.stats.bank_conflict_cycles, 0u);  // unbanked: never charged
  // SMT merges co-issue memory ops, so some conflicts must occur. The
  // added stalls shift timeslice alignment, so allow a little slack in
  // the aggregate comparison rather than demanding strict monotonicity.
  EXPECT_GT(conflict_cycles, 0u);
  EXPECT_GE(rb.cycles + rb.cycles / 20, rf.cycles);
}

TEST(Simulation, L2ReducesMissCostOnRethrashedSets) {
  const auto progs =
      programs_of(kM, {"mcf", "cjpeg", "colorspace", "bzip2"});
  SimConfig small_l1 = fast_config();
  small_l1.mem.dcache = CacheConfig{4096, 64, 2, 20};  // thrashes
  small_l1.mem.icache = small_l1.mem.dcache;
  SimConfig with_l2 = small_l1;
  with_l2.mem.has_l2 = true;
  with_l2.mem.l2 = CacheConfig{256 * 1024, 64, 8, 80};
  const SimResult r1 = run_simulation(Scheme::parse("3SSS"), progs,
                                      small_l1);
  const SimResult r2 = run_simulation(Scheme::parse("3SSS"), progs,
                                      with_l2);
  EXPECT_EQ(r1.l2.total, 0u);   // no L2 configured: counter stays dark
  EXPECT_GT(r2.l2.total, 0u);   // every L1 miss probes the L2
  EXPECT_GT(r2.l2.hits, 0u);    // and the big L2 absorbs rethrash misses
}

TEST(Simulation, RejectsEmptyWorkload) {
  EXPECT_THROW(
      (void)run_simulation(Scheme::parse("1S"), {}, fast_config()),
      CheckError);
}

TEST(Simulation, RejectsProgramForDifferentMachine) {
  const auto progs = programs_of(MachineConfig::vex4x2(), {"mcf"});
  EXPECT_THROW((void)run_simulation(Scheme::single_thread(), progs,
                                    fast_config()),
               CheckError);
}

}  // namespace
}  // namespace cvmt
