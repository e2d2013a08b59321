#include "exp/params.hpp"

#include <algorithm>
#include <limits>

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
  parser.add_u64("budget", "instrs", "Instruction budget per thread.");
  parser.add_u64("timeslice", "cycles", "OS timeslice in cycles.");
  parser.add_u64("workers", "n",
                 "Batch-runner worker threads (0 = all hardware cores); "
                 "results are bit-identical for any count.");
  parser.add_string("stats", "level",
                    "Merge-statistics accounting for the sweeps.",
                    {"full", "fast"});
  parser.add_string("schemes", "a,b,...",
                    "Restrict to these schemes (paper names or functional "
                    "syntax).");
  parser.add_string("workloads", "a,b,...",
                    "Restrict to these Table 2 workloads (ILP combos).");
  parser.add_u64("clusters", "n",
                 "Machine shape: cluster count (with --issue; default "
                 "machine is the paper's 4x4 VEX).");
  parser.add_u64("issue", "n", "Machine shape: issue width per cluster.");
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

namespace {

std::vector<std::string> parse_list(const std::string& csv) {
  std::vector<std::string> out;
  for (const std::string& item : split(csv, ',')) {
    const std::string_view trimmed = trim(item);
    if (!trimmed.empty()) out.emplace_back(trimmed);
  }
  return out;
}

}  // namespace

ExperimentParams ExperimentParams::resolve(const ArgParser& parser) {
  ExperimentParams p;

  // Layers 1+2: defaults, then the fast scale.
  p.fast = parser.get_flag("fast");
  if (p.fast) {
    p.cfg.sim.instruction_budget = kFastInstructionBudget;
    p.cfg.sim.timeslice_cycles = kFastTimesliceCycles;
  }
  // Layer 3: an explicit --budget/--timeslice beats the fast scale.
  p.cfg.sim.instruction_budget =
      parser.get_u64("budget", p.cfg.sim.instruction_budget);
  p.cfg.sim.timeslice_cycles =
      parser.get_u64("timeslice", p.cfg.sim.timeslice_cycles);

  constexpr std::uint64_t kMaxWorkers = std::numeric_limits<unsigned>::max();
  p.cfg.batch.workers = static_cast<unsigned>(
      std::min(parser.get_u64("workers", 0), kMaxWorkers));

  // Stats: the experiment layer's sweeps are pure-IPC, so the resolved
  // default is kFast (the library SimConfig default stays kFull). A bad
  // --stats value was already rejected by the parser's choices.
  p.cfg.sim.stats = parser.get_string("stats", "fast") == "full"
                        ? StatsLevel::kFull
                        : StatsLevel::kFast;

  // Machine: only override the paper's vex4x4 when asked. A --machine
  // spec (built-in name or .machine file) sets machine + memory + switch
  // policy as one unit and excludes the shape shorthand flags.
  const std::uint64_t clusters = parser.get_u64("clusters", 0);
  const std::uint64_t issue = parser.get_u64("issue", 0);
  const std::string machine_spec = parser.get_string("machine", "");
  if (!machine_spec.empty()) {
    CVMT_CHECK_MSG(clusters == 0 && issue == 0,
                   "--machine conflicts with --clusters/--issue (a machine "
                   "file fixes the whole shape)");
    const MachineDescription md = resolve_machine(machine_spec);
    p.cfg.sim.machine = md.machine;
    p.cfg.sim.mem = md.mem;
    p.cfg.sim.switch_policy = md.switch_policy;
    p.machine_spec = machine_spec;
  } else if (clusters != 0 || issue != 0) {
    p.cfg.sim.machine =
        MachineConfig::clustered(static_cast<int>(clusters ? clusters : 4),
                                 static_cast<int>(issue ? issue : 4));
  }

  // Store and shard, validated eagerly: a malformed --shard must fail up
  // front, not silently compute the whole grid.
  p.store_dir = parser.get_string("store", "");
  const std::string shard = parser.get_string("shard", "");
  if (!shard.empty()) {
    CVMT_CHECK_MSG(!p.store_dir.empty(),
                   "--shard requires --store (the shard logs need a "
                   "directory)");
    const ShardSpec spec = parse_shard_spec(shard);
    p.shard_index = spec.index;
    p.shard_count = spec.count;
  }

  // Filters, validated eagerly so a typo fails before hours of sweep.
  p.schemes = parse_list(parser.get_string("schemes", ""));
  for (const std::string& s : p.schemes) (void)Scheme::parse(s);
  p.workloads = parse_list(parser.get_string("workloads", ""));
  for (const std::string& w : p.workloads) {
    bool known = false;
    for (const Workload& t2 : table2_workloads())
      known = known || t2.ilp_combo == w;
    CVMT_CHECK_MSG(known, "unknown workload \"" + w +
                              "\" (expected a Table 2 ILP combo such as "
                              "LLHH)");
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
    // Without a spec the only non-default shapes resolve() can produce
    // are the homogeneous --clusters/--issue ones.
    machine.set("clusters", cfg.sim.machine.num_clusters);
    machine.set("issue", cfg.sim.machine.issue_per_cluster);
  }
  out.set("machine", std::move(machine));
  return out;
}

ExperimentParams ExperimentParams::from_manifest_json(
    const JsonValue& manifest, std::string* experiment_out) {
  CVMT_CHECK_MSG(manifest.get("version").as_int() == 1,
                 "store manifest version " +
                     std::to_string(manifest.get("version").as_int()) +
                     " is newer than this build understands");
  if (experiment_out != nullptr)
    *experiment_out = manifest.get("experiment").as_string();
  ExperimentParams p;
  p.fast = manifest.get("fast").as_bool();
  p.cfg.sim.instruction_budget =
      static_cast<std::uint64_t>(manifest.get("budget").as_int());
  p.cfg.sim.timeslice_cycles =
      static_cast<std::uint64_t>(manifest.get("timeslice").as_int());
  p.cfg.sim.stats = manifest.get("stats").as_string() == "full"
                        ? StatsLevel::kFull
                        : StatsLevel::kFast;
  const JsonValue& machine = manifest.get("machine");
  if (const JsonValue* spec = machine.find("spec"); spec != nullptr) {
    const MachineDescription md = resolve_machine(spec->as_string());
    p.cfg.sim.machine = md.machine;
    p.cfg.sim.mem = md.mem;
    p.cfg.sim.switch_policy = md.switch_policy;
    p.machine_spec = spec->as_string();
  } else if (const JsonValue* clusters = machine.find("clusters");
             clusters != nullptr) {
    p.cfg.sim.machine = MachineConfig::clustered(
        static_cast<int>(clusters->as_int()),
        static_cast<int>(machine.get("issue").as_int()));
  }
  const JsonValue& scheme_arr = manifest.get("schemes");
  for (std::size_t i = 0; i < scheme_arr.size(); ++i)
    p.schemes.push_back(scheme_arr.at(i).as_string());
  const JsonValue& workload_arr = manifest.get("workloads");
  for (std::size_t i = 0; i < workload_arr.size(); ++i)
    p.workloads.push_back(workload_arr.at(i).as_string());
  // shard_index/count stay 0/1: the replay run sees the whole grid (the
  // SweepStore carries the manifest's shard count for its diagnostics).
  return p;
}

}  // namespace cvmt
