// The declared parameter schema of the experiment registry: which knobs an
// experiment consumes, and the one resolver that turns knobs into
// parameters.
//
// Every knob reaches a run as a member of one JSON "knob object", the
// object serve accepts as "params":
//
//   fast       bool     smoke scale: kFastInstructionBudget and
//                       kFastTimesliceCycles
//   budget     1..      instructions per thread (default 400k)
//   timeslice  1..      OS timeslice in cycles (default 50k)
//   workers    0..      batch threads, at most one per core, 0 = all;
//                       above kMaxWorkers it is clamped (results are
//                       bit-identical for any count)
//   stats      "full" | "fast" (default "fast")
//   schemes    [names]  scheme filter, each checked by Scheme::parse
//   workloads  [names]  Table 2 ILP combos
//   machine    name or .machine path ("" = not given)
//   clusters   0..kMaxClusters          0 = not given; the shape is
//   issue      0..kMaxIssuePerCluster   clusters x issue, 4 when 0, at
//                                       most kMaxTotalOps slots
//
// from_json() applies the rules once: type and range checks before any
// narrowing cast, the layering (defaults, then fast, then budget/
// timeslice), the machine vs clusters/issue conflict, eager filter
// validation and unknown-key rejection. Each entry point only translates
// its input into a knob object: resolve() the knob flags given on the
// command line, serve's parse_request a request's "params" or "config",
// and from_manifest_json() a store manifest. Errors are CheckErrors whose
// message names the knob and carries no source path.
//
// Stats level is an explicit field here, not an implicit split: the
// library's SimConfig defaults to StatsLevel::kFull (a bare run_simulation
// call gets full diagnostics), while the experiment layer resolves to
// kFast because the paper sweeps are pure-IPC. Experiments that read
// merge-node counters declare `forces_full_stats` and override the
// resolved level; `cvmt list` surfaces that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/batch_runner.hpp"
#include "support/args.hpp"
#include "support/json.hpp"

namespace cvmt {

/// The --fast smoke-test scale (the `fast` knob).
inline constexpr std::uint64_t kFastInstructionBudget = 60'000;
inline constexpr std::uint64_t kFastTimesliceCycles = 10'000;

/// Common configuration for all simulation-backed experiments.
struct ExperimentConfig {
  SimConfig sim;
  /// Fan-out options for the batch runner (--workers fills the worker
  /// count, 0 = all hardware cores); results are identical for any
  /// worker count.
  BatchOptions batch;
};

/// One knob of an experiment's declared parameter schema.
enum class ParamKind : std::uint8_t {
  kBudget,     ///< --budget/--fast
  kTimeslice,  ///< --timeslice
  kWorkers,    ///< --workers (execution detail; never part of
               ///< machine-readable output)
  kStats,      ///< --stats (full|fast)
  kSchemes,    ///< --schemes=A,B,... filter
  kWorkloads,  ///< --workloads=A,B,... filter
  kMachine,    ///< --machine, or --clusters/--issue
};

[[nodiscard]] const char* to_string(ParamKind k);

/// Fully resolved parameters handed to an experiment runner.
struct ExperimentParams {
  ExperimentConfig cfg;  ///< sim + batch knobs (see from_json)
  bool fast = false;     ///< fast scale requested (--fast)
  /// Scheme filter (paper names or functional syntax); empty = the
  /// experiment's default set. Validated by from_json() via Scheme::parse.
  std::vector<std::string> schemes;
  /// Workload filter (Table 2 ILP combos); empty = all nine.
  std::vector<std::string> workloads;
  /// The resolved --machine spec (built-in name or file
  /// path); empty when the machine came from defaults or --clusters/
  /// --issue. Machine-readable output echoes it only when set, keeping
  /// default runs byte-identical.
  std::string machine_spec;
  /// The --store directory of a sharded/resumable sweep;
  /// empty = no store. Only the driver acts on it (it opens the
  /// SweepStore and plants it in cfg.batch.store); for every other
  /// consumer the field is inert.
  std::string store_dir;
  /// The parsed --shard spec; 0/1 (the whole grid) unless a
  /// store run asked for a partition. Validated eagerly by resolve().
  unsigned shard_index = 0;
  unsigned shard_count = 1;

  /// More batch-runner threads than this are clamped to it.
  static constexpr std::uint64_t kMaxWorkers = 1024;

  /// Declares the standard experiment flags on `parser` (all of them;
  /// whether an experiment consumes a knob is the schema's concern).
  static void add_standard_flags(ArgParser& parser);

  /// Resolves a knob object (an object holding the keys listed at the
  /// top of this file) over the defaults. Throws CheckError naming the
  /// knob on a wrong type, an out-of-range value, a conflict, a bad
  /// filter entry or an unknown key.
  [[nodiscard]] static ExperimentParams from_json(const JsonValue& knobs);

  /// The knob flags set on the command line, resolved by from_json, then
  /// --store/--shard (validated only after every knob passed, so a bad
  /// knob touches no store directory). Throws CheckError.
  [[nodiscard]] static ExperimentParams resolve(const ArgParser& parser);

  /// The store manifest describing this parameter set for `experiment`
  /// sharded `shard_count` ways: everything a later resume or merge needs
  /// to reconstruct the exact sweep (fast scale, budgets, stats level,
  /// filters, machine shape). Workers are excluded — an execution
  /// detail, bit-identical results for any value.
  [[nodiscard]] JsonValue to_manifest_json(std::string_view experiment,
                                           unsigned shard_count) const;

  /// Inverse of to_manifest_json: rebuilds the resolved parameter set a
  /// manifest describes (`cvmt merge` runs the experiment under these,
  /// reproducing the unsharded output bytes). A manifest is a knob object
  /// with the machine nested, plus version, experiment and shard count;
  /// from_json resolves it. Returns the experiment id through
  /// `experiment_out`. Throws CheckError.
  [[nodiscard]] static ExperimentParams from_manifest_json(
      const JsonValue& manifest, std::string* experiment_out);
};

}  // namespace cvmt
