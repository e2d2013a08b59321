// The declared parameter schema of the experiment registry: which knobs an
// experiment consumes, and the resolution of those knobs from CLI flags
// layered over CVMT_* environment defaults.
//
// Resolution order (documented contract, driver and bench shims alike):
//   1. SimConfig built-in defaults (400k budget, 50k timeslice, vex4x4)
//   2. fast scale (--fast flag or CVMT_FAST=1): kFastBudget/kFastTimeslice
//   3. CVMT_BUDGET / CVMT_TIMESLICE environment values
//   4. --budget / --timeslice CLI flags
// Workers, stats and machine shape resolve flag > env > default.
//
// Stats level is an explicit field here, not an implicit split: the
// library's SimConfig defaults to StatsLevel::kFull (a bare run_simulation
// call gets full diagnostics), while the experiment layer resolves to
// kFast because the paper sweeps are pure-IPC. Experiments that read
// merge-node counters declare `forces_full_stats` and override the
// resolved level; `cvmt list` surfaces that. Unrecognized CVMT_STATS
// values warn on stderr and fall back to fast; unrecognized --stats
// values are a hard CLI error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiments.hpp"
#include "support/args.hpp"
#include "support/json.hpp"

namespace cvmt {

/// One knob of an experiment's declared parameter schema.
enum class ParamKind : std::uint8_t {
  kBudget,     ///< --budget/--fast over CVMT_BUDGET/CVMT_FAST
  kTimeslice,  ///< --timeslice over CVMT_TIMESLICE
  kWorkers,    ///< --workers over CVMT_WORKERS (execution detail; never
               ///< part of machine-readable output)
  kStats,      ///< --stats over CVMT_STATS (full|fast)
  kSchemes,    ///< --schemes=A,B,... filter
  kWorkloads,  ///< --workloads=A,B,... filter
  kMachine,    ///< --machine over CVMT_MACHINE, or --clusters/--issue over
               ///< CVMT_CLUSTERS/CVMT_ISSUE
};

[[nodiscard]] const char* to_string(ParamKind k);

/// Fully resolved parameters handed to an experiment runner.
struct ExperimentParams {
  ExperimentConfig cfg;  ///< sim + batch knobs (see resolution order above)
  bool fast = false;     ///< fast scale requested (--fast or CVMT_FAST)
  /// Scheme filter (paper names or functional syntax); empty = the
  /// experiment's default set. Validated by resolve() via Scheme::parse.
  std::vector<std::string> schemes;
  /// Workload filter (Table 2 ILP combos); empty = all nine.
  std::vector<std::string> workloads;
  /// The resolved --machine/CVMT_MACHINE spec (built-in name or file
  /// path); empty when the machine came from defaults or --clusters/
  /// --issue. Machine-readable output echoes it only when set, keeping
  /// default runs byte-identical.
  std::string machine_spec;
  /// The --store/CVMT_STORE directory of a sharded/resumable sweep;
  /// empty = no store. Only the driver acts on it (it opens the
  /// SweepStore and plants it in cfg.batch.store); for every other
  /// consumer the field is inert.
  std::string store_dir;
  /// The parsed --shard/CVMT_SHARD spec; 0/1 (the whole grid) unless a
  /// store run asked for a partition. Validated eagerly by resolve().
  unsigned shard_index = 0;
  unsigned shard_count = 1;

  /// Declares the standard experiment flags on `parser` (all of them;
  /// whether an experiment consumes a knob is the schema's concern).
  static void add_standard_flags(ArgParser& parser);

  /// Resolves flags over environment over defaults. Throws CheckError on
  /// an invalid scheme/workload filter value (caller prints the message).
  [[nodiscard]] static ExperimentParams resolve(const ArgParser& parser);

  /// Environment-only resolution (the ExperimentConfig::from_env
  /// equivalent, plus filters from CVMT_SCHEMES/CVMT_WORKLOADS).
  [[nodiscard]] static ExperimentParams from_env();

  /// The store manifest describing this parameter set for `experiment`
  /// sharded `shard_count` ways: everything a later resume or merge needs
  /// to reconstruct the exact sweep (fast scale, budgets, stats level,
  /// filters, machine shape). Workers are excluded — an execution
  /// detail, bit-identical results for any value.
  [[nodiscard]] JsonValue to_manifest_json(std::string_view experiment,
                                           unsigned shard_count) const;

  /// Inverse of to_manifest_json: rebuilds the resolved parameter set a
  /// manifest describes (`cvmt merge` runs the experiment under these,
  /// reproducing the unsharded output bytes). Returns the experiment id
  /// through `experiment_out`.
  [[nodiscard]] static ExperimentParams from_manifest_json(
      const JsonValue& manifest, std::string* experiment_out);
};

}  // namespace cvmt
