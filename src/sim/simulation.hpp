// Top-level simulation entry point: configure machine + memory + scheme +
// workload, run, collect a structured result. run_simulation over a merge
// plan (the compiled scheme x machine) is the one place a run's state is
// built: it creates the memory system, the core, the thread contexts and
// the OS scheduler as locals, runs them and harvests the SimResult, so no
// run state outlives its run. Sweeps reach it through the session layer
// (sim/session.hpp), which caches the plans and workloads it takes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/merge_engine.hpp"
#include "sim/os_scheduler.hpp"
#include "trace/benchmark_suite.hpp"

namespace cvmt {

/// All knobs of one simulation run. Defaults model the paper's machine at
/// laptop-scale run lengths: a 400k instruction budget and 50k-cycle
/// timeslices, 8 timeslices per budget, where the paper runs 100M and 1M,
/// 100 per budget. The relations against 1S move with the scale:
/// `cvmt run scale` puts 2SC3 vs 1S between 25.5% and 40.7% (DESIGN.md
/// "Run-length scale-down").
struct SimConfig {
  MachineConfig machine = MachineConfig::vex4x4();
  MemorySystemConfig mem;  ///< 64KB 4-way I/D, 20-cycle penalty, shared
  PriorityPolicy priority = PriorityPolicy::kRoundRobin;
  MissPolicy miss_policy = MissPolicy::kSerialized;
  std::uint64_t timeslice_cycles = 50'000;
  std::uint64_t instruction_budget = 400'000;  ///< per thread, stop-at-first
  std::uint64_t max_cycles = 1ULL << 40;       ///< hard safety stop
  std::uint64_t os_seed = 0xC0FFEE;
  std::uint64_t stream_seed_base = 7;  ///< per-thread trace stream seeds
  /// OS thread-switch policy (paper: random replacement each timeslice).
  SwitchPolicyKind switch_policy = SwitchPolicyKind::kRandomTimeslice;
  /// Merge-statistics accounting. kFull populates SimResult's merge_nodes
  /// counters and issued_per_cycle histogram; kFast skips those writes on
  /// the hot path (labels stay, counters read zero) — every other result
  /// field is bit-identical between the two levels.
  StatsLevel stats = StatsLevel::kFull;
  /// Merge evaluator. kTreeReference is the pre-plan recursive walk, kept
  /// as the oracle of the golden bit-identity tests and the fuzzer.
  EvalMode eval_mode = EvalMode::kPlan;
  /// Jump the cycle counter over all-stalled windows (bit-identical to
  /// stepping them; off only as the stepped oracle the golden tests and
  /// the fuzzer compare against).
  bool stall_fast_forward = true;
};

/// Per-software-thread outcome.
struct ThreadResult {
  std::string benchmark;
  ThreadStats stats;
};

/// Outcome of one run.
struct SimResult {
  std::string scheme;
  std::uint64_t cycles = 0;
  std::uint64_t total_ops = 0;
  std::uint64_t total_instructions = 0;
  std::uint64_t idle_cycles = 0;
  double ipc = 0.0;  ///< useful operations per cycle (paper's metric)
  std::vector<ThreadResult> threads;
  RatioCounter icache;
  RatioCounter dcache;
  RatioCounter l2;  ///< zero counters when the machine has no L2
  Histogram issued_per_cycle{1};
  std::vector<MergeNodeStats> merge_nodes;
  OsRunStats os;
};

/// Runs `programs` (one per software thread) under the scheme `plan` was
/// compiled from, on the machine described by `config`, which must be the
/// plan's machine. The number of hardware contexts is the scheme's thread
/// count; the workload may be larger (the OS timeslices it) or smaller
/// (slots idle). Every piece of run state is built fresh for this call.
[[nodiscard]] SimResult run_simulation(
    const std::shared_ptr<const MergePlan>& plan,
    std::span<const std::shared_ptr<const SyntheticProgram>> programs,
    const SimConfig& config);

/// Same, compiling `scheme` for `config.machine` first.
[[nodiscard]] SimResult run_simulation(
    const Scheme& scheme,
    const std::vector<std::shared_ptr<const SyntheticProgram>>& programs,
    const SimConfig& config);

}  // namespace cvmt
