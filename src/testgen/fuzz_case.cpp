#include "testgen/fuzz_case.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/check.hpp"

namespace cvmt {
namespace {

JsonValue profile_to_json(const BenchmarkProfile& p) {
  JsonValue o = JsonValue::object();
  o.set("name", p.name);
  o.set("ilp", std::string(1, to_char(p.ilp)));
  o.set("target_ipc_real", p.target_ipc_real);
  o.set("target_ipc_perfect", p.target_ipc_perfect);
  o.set("num_loops", p.num_loops);
  o.set("mean_body_instrs", p.mean_body_instrs);
  o.set("mean_trip_count", p.mean_trip_count);
  o.set("mean_ops_per_instr", p.mean_ops_per_instr);
  o.set("mem_op_frac", p.mem_op_frac);
  o.set("store_frac", p.store_frac);
  o.set("mul_op_frac", p.mul_op_frac);
  o.set("mid_branch_frac", p.mid_branch_frac);
  o.set("mid_branch_taken", p.mid_branch_taken);
  o.set("ops_per_cluster_target", p.ops_per_cluster_target);
  o.set("hot_bytes", p.hot_bytes);
  o.set("hot_stride", p.hot_stride);
  o.set("assumed_miss_penalty", p.assumed_miss_penalty);
  o.set("code_bytes_per_instr", p.code_bytes_per_instr);
  o.set("seed", p.seed);
  return o;
}

BenchmarkProfile profile_from_json(const JsonValue& o) {
  BenchmarkProfile p;
  p.name = o.get("name").as_string();
  const std::string ilp = o.get("ilp").as_string();
  CVMT_CHECK_MSG(ilp == "L" || ilp == "M" || ilp == "H",
                 "bad ilp letter in fuzz case: " + ilp);
  p.ilp = ilp == "L" ? IlpDegree::kLow
                     : (ilp == "M" ? IlpDegree::kMedium : IlpDegree::kHigh);
  p.target_ipc_real = o.get("target_ipc_real").as_double();
  p.target_ipc_perfect = o.get("target_ipc_perfect").as_double();
  p.num_loops = static_cast<int>(o.get("num_loops").as_int());
  p.mean_body_instrs = o.get("mean_body_instrs").as_double();
  p.mean_trip_count = o.get("mean_trip_count").as_double();
  p.mean_ops_per_instr = o.get("mean_ops_per_instr").as_double();
  p.mem_op_frac = o.get("mem_op_frac").as_double();
  p.store_frac = o.get("store_frac").as_double();
  p.mul_op_frac = o.get("mul_op_frac").as_double();
  p.mid_branch_frac = o.get("mid_branch_frac").as_double();
  p.mid_branch_taken = o.get("mid_branch_taken").as_double();
  p.ops_per_cluster_target = o.get("ops_per_cluster_target").as_double();
  p.hot_bytes = static_cast<std::uint64_t>(o.get("hot_bytes").as_int());
  p.hot_stride = static_cast<std::uint64_t>(o.get("hot_stride").as_int());
  p.assumed_miss_penalty =
      static_cast<int>(o.get("assumed_miss_penalty").as_int());
  p.code_bytes_per_instr =
      static_cast<std::uint64_t>(o.get("code_bytes_per_instr").as_int());
  p.seed = static_cast<std::uint64_t>(o.get("seed").as_int());
  return p;
}

JsonValue cache_to_json(const CacheConfig& c) {
  JsonValue o = JsonValue::object();
  o.set("size_bytes", c.size_bytes);
  o.set("line_bytes", static_cast<std::uint64_t>(c.line_bytes));
  o.set("ways", static_cast<std::uint64_t>(c.ways));
  o.set("miss_penalty", c.miss_penalty);
  return o;
}

CacheConfig cache_from_json(const JsonValue& o) {
  CacheConfig c;
  c.size_bytes = static_cast<std::uint64_t>(o.get("size_bytes").as_int());
  c.line_bytes = static_cast<std::uint32_t>(o.get("line_bytes").as_int());
  c.ways = static_cast<std::uint32_t>(o.get("ways").as_int());
  c.miss_penalty = static_cast<int>(o.get("miss_penalty").as_int());
  return c;
}

JsonValue machine_to_json(const MachineConfig& m) {
  const ClusterShape flat = m.flat_shape();
  JsonValue o = JsonValue::object();
  o.set("num_clusters", m.num_clusters);
  o.set("issue_per_cluster", flat.issue_width);
  o.set("mul_slot_mask", static_cast<std::uint64_t>(flat.mul_slot_mask));
  o.set("mem_slot_mask", static_cast<std::uint64_t>(flat.mem_slot_mask));
  o.set("branch_slot_mask",
        static_cast<std::uint64_t>(flat.branch_slot_mask));
  o.set("alu_latency", m.alu_latency);
  o.set("mul_latency", m.mul_latency);
  o.set("mem_latency", m.mem_latency);
  o.set("taken_branch_penalty", m.taken_branch_penalty);
  // A machine that is not uniform adds its clusters (fuzz-case JSON stays
  // v1: the key is simply absent for uniform machines, so old corpora and
  // old readers keep working byte-for-byte).
  if (!m.uniform()) {
    JsonValue rows = JsonValue::array();
    for (const ClusterShape& s : m.clusters()) {
      JsonValue row = JsonValue::object();
      row.set("issue", s.issue_width);
      row.set("mul", static_cast<std::uint64_t>(s.mul_slot_mask));
      row.set("mem", static_cast<std::uint64_t>(s.mem_slot_mask));
      row.set("branch", static_cast<std::uint64_t>(s.branch_slot_mask));
      rows.push_back(std::move(row));
    }
    o.set("clusters", std::move(rows));
  }
  return o;
}

MachineConfig machine_from_json(const JsonValue& o) {
  MachineConfig m;
  // Checked before any cluster is written: per_cluster holds kMaxClusters.
  const std::int64_t clusters = o.get("num_clusters").as_int();
  CVMT_REQUIRE(clusters >= 1 && clusters <= kMaxClusters,
               "fuzz case: num_clusters " + std::to_string(clusters) +
                   " out of range (1.." + std::to_string(kMaxClusters) +
                   ")");
  m.num_clusters = static_cast<int>(clusters);
  ClusterShape flat;
  flat.issue_width = static_cast<int>(o.get("issue_per_cluster").as_int());
  flat.mul_slot_mask =
      static_cast<std::uint32_t>(o.get("mul_slot_mask").as_int());
  flat.mem_slot_mask =
      static_cast<std::uint32_t>(o.get("mem_slot_mask").as_int());
  flat.branch_slot_mask =
      static_cast<std::uint32_t>(o.get("branch_slot_mask").as_int());
  m.per_cluster.fill(flat);
  m.alu_latency = static_cast<int>(o.get("alu_latency").as_int());
  m.mul_latency = static_cast<int>(o.get("mul_latency").as_int());
  m.mem_latency = static_cast<int>(o.get("mem_latency").as_int());
  m.taken_branch_penalty =
      static_cast<int>(o.get("taken_branch_penalty").as_int());
  if (const JsonValue* rows = o.find("clusters")) {
    CVMT_CHECK_MSG(rows->size() == static_cast<std::size_t>(m.num_clusters),
                   "fuzz case: clusters array does not match num_clusters");
    for (std::size_t c = 0; c < rows->size(); ++c) {
      const JsonValue& row = rows->at(c);
      ClusterShape& s = m.per_cluster[c];
      s.issue_width = static_cast<int>(row.get("issue").as_int());
      s.mul_slot_mask = static_cast<std::uint32_t>(row.get("mul").as_int());
      s.mem_slot_mask = static_cast<std::uint32_t>(row.get("mem").as_int());
      s.branch_slot_mask =
          static_cast<std::uint32_t>(row.get("branch").as_int());
    }
  }
  return m;
}

}  // namespace

Scheme FuzzCase::parse_scheme() const { return Scheme::parse(scheme); }

std::string FuzzCase::summary() const {
  std::ostringstream os;
  os << scheme << " | " << profiles.size() << " sw-thread"
     << (profiles.size() == 1 ? "" : "s") << " | machine "
     << sim.machine.num_clusters << "x"
     << sim.machine.max_issue_per_cluster()
     << (sim.machine.uniform() ? "" : " het")
     << (sim.mem.has_l2 ? " +L2" : "")
     << (sim.mem.dcache_banks > 1 ? " banked" : "")
     << " | policy " << to_string(sim.switch_policy)
     << " | budget " << sim.instruction_budget << " | timeslice "
     << sim.timeslice_cycles << " | priority "
     << static_cast<int>(sim.priority) << " | miss "
     << static_cast<int>(sim.miss_policy) << " | "
     << (sim.mem.perfect ? "perfect-mem"
                         : (sim.mem.sharing == CacheSharing::kShared
                                ? "shared-cache"
                                : "private-cache"));
  return os.str();
}

JsonValue FuzzCase::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("version", 1);
  o.set("label", label);
  o.set("seed", seed);
  o.set("scheme", scheme);
  JsonValue profs = JsonValue::array();
  for (const BenchmarkProfile& p : profiles)
    profs.push_back(profile_to_json(p));
  o.set("profiles", std::move(profs));
  JsonValue s = JsonValue::object();
  s.set("machine", machine_to_json(sim.machine));
  JsonValue mem = JsonValue::object();
  mem.set("icache", cache_to_json(sim.mem.icache));
  mem.set("dcache", cache_to_json(sim.mem.dcache));
  mem.set("shared", sim.mem.sharing == CacheSharing::kShared);
  mem.set("perfect", sim.mem.perfect);
  // Hierarchy extensions: keys are emitted only when the feature is on,
  // so legacy cases serialize exactly as before.
  if (sim.mem.has_l2) mem.set("l2", cache_to_json(sim.mem.l2));
  if (sim.mem.dcache_banks != 1) {
    mem.set("dcache_banks", sim.mem.dcache_banks);
    mem.set("bank_conflict_penalty", sim.mem.bank_conflict_penalty);
  }
  s.set("mem", std::move(mem));
  s.set("priority", static_cast<int>(sim.priority));
  s.set("miss_policy", static_cast<int>(sim.miss_policy));
  s.set("timeslice_cycles", sim.timeslice_cycles);
  s.set("instruction_budget", sim.instruction_budget);
  s.set("max_cycles", sim.max_cycles);
  s.set("os_seed", sim.os_seed);
  s.set("stream_seed_base", sim.stream_seed_base);
  if (sim.switch_policy != SwitchPolicyKind::kRandomTimeslice)
    s.set("switch_policy", std::string(to_string(sim.switch_policy)));
  o.set("sim", std::move(s));
  return o;
}

FuzzCase FuzzCase::from_json(const JsonValue& v) {
  CVMT_CHECK_MSG(v.get("version").as_int() == 1,
                 "unknown fuzz-case version");
  FuzzCase c;
  c.label = v.get("label").as_string();
  c.seed = static_cast<std::uint64_t>(v.get("seed").as_int());
  c.scheme = v.get("scheme").as_string();
  const JsonValue& profs = v.get("profiles");
  for (std::size_t i = 0; i < profs.size(); ++i)
    c.profiles.push_back(profile_from_json(profs.at(i)));
  const JsonValue& s = v.get("sim");
  c.sim.machine = machine_from_json(s.get("machine"));
  const JsonValue& mem = s.get("mem");
  c.sim.mem.icache = cache_from_json(mem.get("icache"));
  c.sim.mem.dcache = cache_from_json(mem.get("dcache"));
  c.sim.mem.sharing = mem.get("shared").as_bool() ? CacheSharing::kShared
                                                  : CacheSharing::kPrivate;
  c.sim.mem.perfect = mem.get("perfect").as_bool();
  if (const JsonValue* l2 = mem.find("l2")) {
    c.sim.mem.has_l2 = true;
    c.sim.mem.l2 = cache_from_json(*l2);
  }
  if (const JsonValue* banks = mem.find("dcache_banks")) {
    c.sim.mem.dcache_banks = static_cast<int>(banks->as_int());
    c.sim.mem.bank_conflict_penalty =
        static_cast<int>(mem.get("bank_conflict_penalty").as_int());
  }
  const std::int64_t priority = s.get("priority").as_int();
  CVMT_CHECK_MSG(priority >= 0 && priority <= 2,
                 "bad priority policy in fuzz case");
  c.sim.priority = static_cast<PriorityPolicy>(priority);
  const std::int64_t miss = s.get("miss_policy").as_int();
  CVMT_CHECK_MSG(miss >= 0 && miss <= 1, "bad miss policy in fuzz case");
  c.sim.miss_policy = static_cast<MissPolicy>(miss);
  c.sim.timeslice_cycles =
      static_cast<std::uint64_t>(s.get("timeslice_cycles").as_int());
  c.sim.instruction_budget =
      static_cast<std::uint64_t>(s.get("instruction_budget").as_int());
  c.sim.max_cycles = static_cast<std::uint64_t>(s.get("max_cycles").as_int());
  c.sim.os_seed = static_cast<std::uint64_t>(s.get("os_seed").as_int());
  c.sim.stream_seed_base =
      static_cast<std::uint64_t>(s.get("stream_seed_base").as_int());
  if (const JsonValue* pol = s.find("switch_policy")) {
    CVMT_CHECK_MSG(
        switch_policy_from_string(pol->as_string(), c.sim.switch_policy),
        "bad switch policy in fuzz case: " + pol->as_string());
  }
  return c;
}

void save_case(const std::string& path, const FuzzCase& c) {
  std::ofstream out(path);
  CVMT_CHECK_MSG(out.good(), "cannot open for writing: " + path);
  c.to_json().write(out);
  out << '\n';
  CVMT_CHECK_MSG(out.good(), "write failed: " + path);
}

FuzzCase load_case(const std::string& path) {
  std::ifstream in(path);
  CVMT_CHECK_MSG(in.good(), "cannot open fuzz case: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  FuzzCase c = FuzzCase::from_json(JsonValue::parse(text.str()));
  if (c.label.empty())
    c.label = std::filesystem::path(path).stem().string();
  return c;
}

std::vector<FuzzCase> load_corpus_dir(const std::string& dir) {
  std::vector<FuzzCase> cases;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return cases;
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".json")
      paths.push_back(entry.path().string());
  std::sort(paths.begin(), paths.end());
  cases.reserve(paths.size());
  for (const std::string& p : paths) cases.push_back(load_case(p));
  return cases;
}

}  // namespace cvmt
