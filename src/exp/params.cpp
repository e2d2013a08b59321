#include "exp/params.hpp"

#include <algorithm>
#include <limits>
#include <string_view>

#include "core/scheme.hpp"
#include "isa/machine_file.hpp"
#include "store/result_store.hpp"
#include "support/check.hpp"
#include "support/string_util.hpp"
#include "trace/benchmark_suite.hpp"

namespace cvmt {

const char* to_string(ParamKind k) {
  switch (k) {
    case ParamKind::kBudget: return "budget";
    case ParamKind::kTimeslice: return "timeslice";
    case ParamKind::kWorkers: return "workers";
    case ParamKind::kStats: return "stats";
    case ParamKind::kSchemes: return "schemes";
    case ParamKind::kWorkloads: return "workloads";
    case ParamKind::kMachine: return "machine";
  }
  return "?";
}

void ExperimentParams::add_standard_flags(ArgParser& parser) {
  parser.add_flag("fast", "Smoke-test scale (small budget and timeslice).");
  parser.add_u64("budget", "instrs", "Instruction budget per thread (>= 1).");
  parser.add_u64("timeslice", "cycles", "OS timeslice in cycles (>= 1).");
  parser.add_u64("workers", "n",
                 "Worker threads, at most one per core (0 = all cores; "
                 "more than 1024 means 1024); results are bit-identical "
                 "for any count.");
  parser.add_string("stats", "level",
                    "Merge-statistics accounting for the sweeps: full or "
                    "fast.");
  parser.add_string("schemes", "a,b,...",
                    "Restrict to these schemes (paper names or functional "
                    "syntax).");
  parser.add_string("workloads", "a,b,...",
                    "Restrict to these Table 2 workloads (ILP combos).");
  parser.add_u64("clusters", "n",
                 "Machine shape: cluster count, 1..8 (with --issue; default "
                 "machine is the paper's 4x4 VEX).");
  parser.add_u64("issue", "n",
                 "Machine shape: issue width per cluster, 1..8 (at most 32 "
                 "slots in all).");
  parser.add_string("machine", "name|file",
                    "Machine description: a built-in name (see `cvmt "
                    "machines`) or a .machine file path. Sets the machine, "
                    "memory system and switch policy together; conflicts "
                    "with --clusters/--issue.");
  parser.add_string("store", "dir",
                    "On-disk result store: completed grid points append "
                    "to crash-safe shard logs in DIR, already-stored "
                    "points are never recomputed (resume = rerun the same "
                    "command), and `cvmt merge --store DIR` folds the "
                    "logs into the full result. See DESIGN.md §12.");
  parser.add_string("shard", "k/n",
                    "With --store: compute only the grid points whose key "
                    "hashes to shard k of n (0 <= k < n). Each shard of a "
                    "partition can run in its own process or on its own "
                    "machine against a shared DIR.");
}

ExperimentParams ExperimentParams::from_json(const JsonValue& knobs) {
  reject_unknown_keys(knobs, "\"params\"",
                      {"fast", "budget", "timeslice", "workers", "stats",
                       "schemes", "workloads", "machine", "clusters",
                       "issue"});
  ExperimentParams p;
  SimConfig& sim = p.cfg.sim;

  // Layers 1+2: defaults, then the fast scale. Layer 3: an explicit
  // budget/timeslice beats the fast scale.
  p.fast = get_bool_field(knobs, "fast", false);
  if (p.fast) {
    sim.instruction_budget = kFastInstructionBudget;
    sim.timeslice_cycles = kFastTimesliceCycles;
  }
  sim.instruction_budget =
      get_u64_field(knobs, "budget", sim.instruction_budget, 1);
  sim.timeslice_cycles =
      get_u64_field(knobs, "timeslice", sim.timeslice_cycles, 1);

  p.cfg.batch.workers = static_cast<unsigned>(
      std::min(get_u64_field(knobs, "workers", 0), kMaxWorkers));

  // The experiment layer's sweeps are pure-IPC, so the default is kFast
  // (the library SimConfig default stays kFull).
  const std::string stats = get_string_field(knobs, "stats", "fast");
  CVMT_REQUIRE(stats == "full" || stats == "fast",
               "field \"stats\" must be \"full\" or \"fast\"");
  sim.stats = stats == "full" ? StatsLevel::kFull : StatsLevel::kFast;

  // Machine: only override the paper's vex4x4 when asked. A machine spec
  // (built-in name or .machine file) sets machine + memory + switch
  // policy as one unit and excludes the shape shorthand.
  const std::string machine = get_string_field(knobs, "machine");
  const std::uint64_t clusters =
      get_u64_field(knobs, "clusters", 0, 0, kMaxClusters);
  const std::uint64_t issue =
      get_u64_field(knobs, "issue", 0, 0, kMaxIssuePerCluster);
  if (!machine.empty()) {
    CVMT_REQUIRE(clusters == 0 && issue == 0,
                 "\"machine\" conflicts with \"clusters\"/\"issue\" (a "
                 "machine description fixes the whole shape)");
    const MachineDescription md = resolve_machine(machine);
    sim.machine = md.machine;
    sim.mem = md.mem;
    sim.switch_policy = md.switch_policy;
    p.machine_spec = machine;
  } else if (clusters != 0 || issue != 0) {
    const int c = clusters != 0 ? static_cast<int>(clusters) : 4;
    const int w = issue != 0 ? static_cast<int>(issue) : 4;
    CVMT_REQUIRE(c * w <= kMaxTotalOps,
                 "\"clusters\" x \"issue\" is " + std::to_string(c * w) +
                     " issue slots, more than the " +
                     std::to_string(kMaxTotalOps) + " a machine can have");
    sim.machine = MachineConfig::clustered(c, w);
  }

  // Filters, validated eagerly so a typo fails before hours of sweep.
  p.schemes = get_string_array(knobs, "schemes");
  for (const std::string& s : p.schemes) {
    try {
      (void)Scheme::parse(s);
    } catch (const CheckError& e) {
      throw CheckError("bad scheme \"" + excerpt(s) + "\" in \"schemes\": " +
                       e.what());
    }
  }
  p.workloads = get_string_array(knobs, "workloads");
  const std::vector<Workload>& table2 = table2_workloads();
  for (const std::string& w : p.workloads)
    CVMT_REQUIRE(std::any_of(table2.begin(), table2.end(),
                             [&](const Workload& t2) {
                               return t2.ilp_combo == w;
                             }),
                 "unknown workload \"" + excerpt(w) +
                     "\" in \"workloads\" (expected a Table 2 ILP combo "
                     "such as LLHH)");
  return p;
}

namespace {

/// A comma-separated flag value as a JSON array, items trimmed and empty
/// items dropped.
JsonValue list_of(const std::string& csv) {
  JsonValue out = JsonValue::array();
  for (const std::string& item : split(csv, ',')) {
    const std::string_view trimmed = trim(item);
    if (!trimmed.empty()) out.push_back(trimmed);
  }
  return out;
}

}  // namespace

ExperimentParams ExperimentParams::resolve(const ArgParser& parser) {
  JsonValue knobs = JsonValue::object();
  if (parser.get_flag("fast")) knobs.set("fast", true);
  for (const char* name :
       {"budget", "timeslice", "workers", "clusters", "issue"}) {
    if (!parser.set_on_cli(name)) continue;
    // Digits beyond the JSON integer range become a double, as the JSON
    // reader makes of them, and get the same rejection.
    const std::uint64_t v = parser.get_u64(name, 0);
    knobs.set(name, v <= static_cast<std::uint64_t>(
                             std::numeric_limits<std::int64_t>::max())
                        ? JsonValue(v)
                        : JsonValue(static_cast<double>(v)));
  }
  for (const char* name : {"stats", "machine"})
    if (parser.set_on_cli(name)) knobs.set(name, parser.get_string(name, ""));
  for (const char* name : {"schemes", "workloads"})
    if (parser.set_on_cli(name))
      knobs.set(name, list_of(parser.get_string(name, "")));
  ExperimentParams p = from_json(knobs);

  // Store and shard, validated eagerly: a malformed --shard must fail up
  // front, not silently compute the whole grid.
  p.store_dir = parser.get_string("store", "");
  const std::string shard = parser.get_string("shard", "");
  if (!shard.empty()) {
    CVMT_REQUIRE(!p.store_dir.empty(),
                 "--shard requires --store (the shard logs need a "
                 "directory)");
    const ShardSpec spec = parse_shard_spec(shard);
    p.shard_index = spec.index;
    p.shard_count = spec.count;
  }
  return p;
}

JsonValue ExperimentParams::to_manifest_json(std::string_view experiment,
                                             unsigned shard_count) const {
  JsonValue out = JsonValue::object();
  out.set("version", 1);
  out.set("experiment", std::string(experiment));
  out.set("shards", static_cast<std::uint64_t>(shard_count));
  out.set("fast", fast);
  out.set("budget", cfg.sim.instruction_budget);
  out.set("timeslice", cfg.sim.timeslice_cycles);
  out.set("stats",
          cfg.sim.stats == StatsLevel::kFull ? "full" : "fast");
  JsonValue scheme_arr = JsonValue::array();
  for (const std::string& s : schemes) scheme_arr.push_back(s);
  out.set("schemes", std::move(scheme_arr));
  JsonValue workload_arr = JsonValue::array();
  for (const std::string& w : workloads) workload_arr.push_back(w);
  out.set("workloads", std::move(workload_arr));
  JsonValue machine = JsonValue::object();
  if (!machine_spec.empty()) {
    // The spec re-resolves at merge time; a .machine file must not change
    // between shard runs and the merge (the point keys would disagree and
    // the merge would report missing points).
    machine.set("spec", machine_spec);
  } else if (!(cfg.sim.machine == MachineConfig::vex4x4())) {
    // Without a spec the only non-default shapes from_json() can produce
    // are the uniform clusters/issue ones.
    machine.set("clusters", cfg.sim.machine.num_clusters);
    machine.set("issue", cfg.sim.machine.per_cluster[0].issue_width);
  }
  out.set("machine", std::move(machine));
  return out;
}

ExperimentParams ExperimentParams::from_manifest_json(
    const JsonValue& manifest, std::string* experiment_out) {
  CVMT_REQUIRE(manifest.kind() == JsonValue::Kind::kObject,
               "store manifest must be a JSON object");
  const std::uint64_t version = get_u64_field(manifest, "version", 0);
  CVMT_REQUIRE(version == 1, "store manifest version " +
                                 std::to_string(version) +
                                 " is not the version 1 this build reads");
  if (experiment_out != nullptr)
    *experiment_out = get_string_field(manifest, "experiment");
  JsonValue knobs = JsonValue::object();
  for (const auto& [key, value] : manifest.members()) {
    if (key == "version" || key == "experiment" || key == "shards") continue;
    if (key != "machine") {
      knobs.set(key, value);
      continue;
    }
    // machine: {} (the default), {"spec": ...} or {"clusters", "issue"}.
    CVMT_REQUIRE(value.kind() == JsonValue::Kind::kObject,
                 "field \"machine\" of a store manifest must be an object");
    reject_unknown_keys(value, "manifest \"machine\"",
                        {"spec", "clusters", "issue"});
    for (const auto& [field, v] : value.members())
      knobs.set(field == "spec" ? "machine" : field, v);
  }
  // shard_index/count stay 0/1: the replay run sees the whole grid (the
  // SweepStore carries the manifest's shard count for its diagnostics).
  return from_json(knobs);
}

}  // namespace cvmt
