#include "testgen/fuzz_case.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "support/check.hpp"

namespace cvmt {
namespace {

/// `o[key]` as a T, checked before it is narrowed: a value that does not
/// fit T (a negative one, for an unsigned T) is an error naming the field
/// `where.key`, not the value the cast would wrap it to.
template <class T>
T int_field(const JsonValue& o, const std::string& where,
            const char* key) {
  const std::int64_t v = o.get(key).as_int();
  CVMT_REQUIRE(std::in_range<T>(v),
               "fuzz case: " + where + "." + key + " " + std::to_string(v) +
                   " out of range (" +
                   std::to_string(std::numeric_limits<T>::min()) + ".." +
                   std::to_string(std::numeric_limits<T>::max()) + ")");
  return static_cast<T>(v);
}

/// `o[key]` as a seed. to_json writes a 64-bit seed as the int64 with its
/// bit pattern, so every JSON integer is a seed and none is narrowed.
std::uint64_t seed_field(const JsonValue& o, const char* key) {
  return static_cast<std::uint64_t>(o.get(key).as_int());
}

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

BenchmarkProfile profile_from_json(const JsonValue& o,
                                   const std::string& where) {
  BenchmarkProfile p;
  p.name = o.get("name").as_string();
  const std::string ilp = o.get("ilp").as_string();
  CVMT_CHECK_MSG(ilp == "L" || ilp == "M" || ilp == "H",
                 "bad ilp letter in fuzz case: " + ilp);
  p.ilp = ilp == "L" ? IlpDegree::kLow
                     : (ilp == "M" ? IlpDegree::kMedium : IlpDegree::kHigh);
  p.target_ipc_real = o.get("target_ipc_real").as_double();
  p.target_ipc_perfect = o.get("target_ipc_perfect").as_double();
  p.num_loops = int_field<int>(o, where, "num_loops");
  p.mean_body_instrs = o.get("mean_body_instrs").as_double();
  p.mean_trip_count = o.get("mean_trip_count").as_double();
  p.mean_ops_per_instr = o.get("mean_ops_per_instr").as_double();
  p.mem_op_frac = o.get("mem_op_frac").as_double();
  p.store_frac = o.get("store_frac").as_double();
  p.mul_op_frac = o.get("mul_op_frac").as_double();
  p.mid_branch_frac = o.get("mid_branch_frac").as_double();
  p.mid_branch_taken = o.get("mid_branch_taken").as_double();
  p.ops_per_cluster_target = o.get("ops_per_cluster_target").as_double();
  p.hot_bytes = int_field<std::uint64_t>(o, where, "hot_bytes");
  p.hot_stride = int_field<std::uint64_t>(o, where, "hot_stride");
  p.assumed_miss_penalty = int_field<int>(o, where, "assumed_miss_penalty");
  p.code_bytes_per_instr =
      int_field<std::uint64_t>(o, where, "code_bytes_per_instr");
  p.seed = seed_field(o, "seed");
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

CacheConfig cache_from_json(const JsonValue& o, const std::string& where) {
  CacheConfig c;
  c.size_bytes = int_field<std::uint64_t>(o, where, "size_bytes");
  c.line_bytes = int_field<std::uint32_t>(o, where, "line_bytes");
  c.ways = int_field<std::uint32_t>(o, where, "ways");
  c.miss_penalty = int_field<int>(o, where, "miss_penalty");
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
  const std::string where = "sim.machine";
  MachineConfig m;
  // Checked before any cluster is written: per_cluster holds kMaxClusters.
  const std::int64_t clusters = o.get("num_clusters").as_int();
  CVMT_REQUIRE(clusters >= 1 && clusters <= kMaxClusters,
               "fuzz case: num_clusters " + std::to_string(clusters) +
                   " out of range (1.." + std::to_string(kMaxClusters) +
                   ")");
  m.num_clusters = static_cast<int>(clusters);
  ClusterShape flat;
  flat.issue_width = int_field<int>(o, where, "issue_per_cluster");
  flat.mul_slot_mask = int_field<std::uint32_t>(o, where, "mul_slot_mask");
  flat.mem_slot_mask = int_field<std::uint32_t>(o, where, "mem_slot_mask");
  flat.branch_slot_mask =
      int_field<std::uint32_t>(o, where, "branch_slot_mask");
  m.per_cluster.fill(flat);
  m.alu_latency = int_field<int>(o, where, "alu_latency");
  m.mul_latency = int_field<int>(o, where, "mul_latency");
  m.mem_latency = int_field<int>(o, where, "mem_latency");
  m.taken_branch_penalty = int_field<int>(o, where, "taken_branch_penalty");
  if (const JsonValue* rows = o.find("clusters")) {
    CVMT_CHECK_MSG(rows->size() == static_cast<std::size_t>(m.num_clusters),
                   "fuzz case: clusters array does not match num_clusters");
    for (std::size_t c = 0; c < rows->size(); ++c) {
      const JsonValue& row = rows->at(c);
      const std::string at = where + ".clusters[" + std::to_string(c) + "]";
      ClusterShape& s = m.per_cluster[c];
      s.issue_width = int_field<int>(row, at, "issue");
      s.mul_slot_mask = int_field<std::uint32_t>(row, at, "mul");
      s.mem_slot_mask = int_field<std::uint32_t>(row, at, "mem");
      s.branch_slot_mask = int_field<std::uint32_t>(row, at, "branch");
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
  c.seed = seed_field(v, "seed");
  c.scheme = v.get("scheme").as_string();
  const JsonValue& profs = v.get("profiles");
  for (std::size_t i = 0; i < profs.size(); ++i)
    c.profiles.push_back(profile_from_json(
        profs.at(i), "profiles[" + std::to_string(i) + "]"));
  const JsonValue& s = v.get("sim");
  c.sim.machine = machine_from_json(s.get("machine"));
  const JsonValue& mem = s.get("mem");
  c.sim.mem.icache = cache_from_json(mem.get("icache"), "sim.mem.icache");
  c.sim.mem.dcache = cache_from_json(mem.get("dcache"), "sim.mem.dcache");
  c.sim.mem.sharing = mem.get("shared").as_bool() ? CacheSharing::kShared
                                                  : CacheSharing::kPrivate;
  c.sim.mem.perfect = mem.get("perfect").as_bool();
  if (const JsonValue* l2 = mem.find("l2")) {
    c.sim.mem.has_l2 = true;
    c.sim.mem.l2 = cache_from_json(*l2, "sim.mem.l2");
  }
  if (mem.find("dcache_banks") != nullptr) {
    c.sim.mem.dcache_banks = int_field<int>(mem, "sim.mem", "dcache_banks");
    c.sim.mem.bank_conflict_penalty =
        int_field<int>(mem, "sim.mem", "bank_conflict_penalty");
  }
  const std::int64_t priority = s.get("priority").as_int();
  CVMT_CHECK_MSG(priority >= 0 && priority <= 2,
                 "bad priority policy in fuzz case");
  c.sim.priority = static_cast<PriorityPolicy>(priority);
  const std::int64_t miss = s.get("miss_policy").as_int();
  CVMT_CHECK_MSG(miss >= 0 && miss <= 1, "bad miss policy in fuzz case");
  c.sim.miss_policy = static_cast<MissPolicy>(miss);
  c.sim.timeslice_cycles =
      int_field<std::uint64_t>(s, "sim", "timeslice_cycles");
  c.sim.instruction_budget =
      int_field<std::uint64_t>(s, "sim", "instruction_budget");
  c.sim.max_cycles = int_field<std::uint64_t>(s, "sim", "max_cycles");
  c.sim.os_seed = seed_field(s, "os_seed");
  c.sim.stream_seed_base = seed_field(s, "stream_seed_base");
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
