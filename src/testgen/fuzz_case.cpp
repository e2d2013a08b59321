#include "testgen/fuzz_case.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "isa/machine_file.hpp"
#include "support/check.hpp"
#include "support/string_util.hpp"

namespace cvmt {
namespace {

/// The version to_json writes and from_json reads.
constexpr int kCaseVersion = 2;

/// The name of field `key` of the object at `where` ("" for the case).
std::string field_name(const std::string& where, const char* key) {
  return where.empty() ? std::string(key) : where + "." + key;
}

/// `o[key]`, where `o` is the object at `where`. A value that is absent
/// or not a `kind` (an integer counts as a number) is an error naming
/// the field.
const JsonValue& field(const JsonValue& o, const std::string& where,
                       const char* key, JsonValue::Kind kind) {
  static constexpr const char* kKindNames[] = {
      "null",     "a bool",   "an integer", "a number",
      "a string", "an array", "an object"};
  CVMT_REQUIRE(o.kind() == JsonValue::Kind::kObject,
               "fuzz case: " + (where.empty() ? "the case" : where) +
                   " is not an object");
  const JsonValue* v = o.find(key);
  CVMT_REQUIRE(v != nullptr, "fuzz case: missing " + field_name(where, key));
  CVMT_REQUIRE(v->kind() == kind || (kind == JsonValue::Kind::kDouble &&
                                     v->kind() == JsonValue::Kind::kInt),
               "fuzz case: " + field_name(where, key) + " is not " +
                   kKindNames[static_cast<int>(kind)]);
  return *v;
}

const std::string& string_field(const JsonValue& o, const std::string& where,
                                const char* key) {
  return field(o, where, key, JsonValue::Kind::kString).as_string();
}

double double_field(const JsonValue& o, const std::string& where,
                    const char* key) {
  return field(o, where, key, JsonValue::Kind::kDouble).as_double();
}

/// `o[key]` as a T, checked before it is narrowed: a value that does not
/// fit T (a negative one, for an unsigned T) is an error naming the field
/// `where.key`, not the value the cast would wrap it to.
template <class T>
T int_field(const JsonValue& o, const std::string& where,
            const char* key) {
  const std::int64_t v = field(o, where, key, JsonValue::Kind::kInt).as_int();
  CVMT_REQUIRE(std::in_range<T>(v),
               "fuzz case: " + field_name(where, key) + " " +
                   std::to_string(v) + " out of range (" +
                   std::to_string(std::numeric_limits<T>::min()) + ".." +
                   std::to_string(std::numeric_limits<T>::max()) + ")");
  return static_cast<T>(v);
}

/// `o[key]` as an enum, written as its value 0..max.
std::int64_t enum_field(const JsonValue& o, const std::string& where,
                        const char* key, std::int64_t max) {
  const std::int64_t v = field(o, where, key, JsonValue::Kind::kInt).as_int();
  CVMT_REQUIRE(v >= 0 && v <= max,
               "fuzz case: " + field_name(where, key) + " " +
                   std::to_string(v) + " out of range (0.." +
                   std::to_string(max) + ")");
  return v;
}

/// `o[key]` as a seed. to_json writes a 64-bit seed as the int64 with its
/// bit pattern, so every JSON integer is a seed and none is narrowed.
std::uint64_t seed_field(const JsonValue& o, const std::string& where,
                         const char* key) {
  return static_cast<std::uint64_t>(
      field(o, where, key, JsonValue::Kind::kInt).as_int());
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
  p.name = string_field(o, where, "name");
  const std::string& ilp = string_field(o, where, "ilp");
  CVMT_REQUIRE(ilp == "L" || ilp == "M" || ilp == "H",
               "fuzz case: " + where + ".ilp '" + excerpt(ilp) +
                   "' is not L, M or H");
  p.ilp = ilp == "L" ? IlpDegree::kLow
                     : (ilp == "M" ? IlpDegree::kMedium : IlpDegree::kHigh);
  p.target_ipc_real = double_field(o, where, "target_ipc_real");
  p.target_ipc_perfect = double_field(o, where, "target_ipc_perfect");
  p.num_loops = int_field<int>(o, where, "num_loops");
  p.mean_body_instrs = double_field(o, where, "mean_body_instrs");
  p.mean_trip_count = double_field(o, where, "mean_trip_count");
  p.mean_ops_per_instr = double_field(o, where, "mean_ops_per_instr");
  p.mem_op_frac = double_field(o, where, "mem_op_frac");
  p.store_frac = double_field(o, where, "store_frac");
  p.mul_op_frac = double_field(o, where, "mul_op_frac");
  p.mid_branch_frac = double_field(o, where, "mid_branch_frac");
  p.mid_branch_taken = double_field(o, where, "mid_branch_taken");
  p.ops_per_cluster_target = double_field(o, where, "ops_per_cluster_target");
  p.hot_bytes = int_field<std::uint64_t>(o, where, "hot_bytes");
  p.hot_stride = int_field<std::uint64_t>(o, where, "hot_stride");
  p.assumed_miss_penalty = int_field<int>(o, where, "assumed_miss_penalty");
  p.code_bytes_per_instr =
      int_field<std::uint64_t>(o, where, "code_bytes_per_instr");
  p.seed = seed_field(o, where, "seed");
  return p;
}

/// The case's machine, memory system and switch policy as the lines of
/// their `.machine` description, without its comment and name: a case's
/// machine has none.
JsonValue machine_lines(const SimConfig& sim) {
  MachineDescription d;
  d.machine = sim.machine;
  d.mem = sim.mem;
  d.switch_policy = sim.switch_policy;
  JsonValue lines = JsonValue::array();
  for (const std::string& line : split(serialize_machine(d), '\n'))
    if (!line.empty() && line[0] != '#' && !line.starts_with("name "))
      lines.push_back(line);
  return lines;
}

/// Parses the lines machine_lines wrote, counting them from 1 in errors.
MachineDescription machine_from_lines(const JsonValue& lines) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const JsonValue& line = lines.at(i);
    CVMT_REQUIRE(line.kind() == JsonValue::Kind::kString &&
                     line.as_string().find('\n') == std::string::npos,
                 "fuzz case: sim.machine: line " + std::to_string(i + 1) +
                     " is not one line of text");
    text += line.as_string();
    text += '\n';
  }
  try {
    return parse_machine_file(text);
  } catch (const CheckError& e) {
    throw CheckError("fuzz case: sim.machine: " + std::string(e.what()));
  }
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
  o.set("version", kCaseVersion);
  o.set("label", label);
  o.set("seed", seed);
  o.set("scheme", scheme);
  JsonValue profs = JsonValue::array();
  for (const BenchmarkProfile& p : profiles)
    profs.push_back(profile_to_json(p));
  o.set("profiles", std::move(profs));
  JsonValue s = JsonValue::object();
  s.set("machine", machine_lines(sim));
  s.set("priority", static_cast<int>(sim.priority));
  s.set("miss_policy", static_cast<int>(sim.miss_policy));
  s.set("timeslice_cycles", sim.timeslice_cycles);
  s.set("instruction_budget", sim.instruction_budget);
  s.set("max_cycles", sim.max_cycles);
  s.set("os_seed", sim.os_seed);
  s.set("stream_seed_base", sim.stream_seed_base);
  o.set("sim", std::move(s));
  return o;
}

FuzzCase FuzzCase::from_json(const JsonValue& v) {
  const std::int64_t version =
      field(v, "", "version", JsonValue::Kind::kInt).as_int();
  CVMT_REQUIRE(version == kCaseVersion,
               "fuzz case: version " + std::to_string(version) +
                   " is not the version this build reads (" +
                   std::to_string(kCaseVersion) + ")");
  FuzzCase c;
  c.label = string_field(v, "", "label");
  c.seed = seed_field(v, "", "seed");
  c.scheme = string_field(v, "", "scheme");
  const JsonValue& profs = field(v, "", "profiles", JsonValue::Kind::kArray);
  for (std::size_t i = 0; i < profs.size(); ++i)
    c.profiles.push_back(profile_from_json(
        profs.at(i), "profiles[" + std::to_string(i) + "]"));
  const JsonValue& s = field(v, "", "sim", JsonValue::Kind::kObject);
  const MachineDescription d = machine_from_lines(
      field(s, "sim", "machine", JsonValue::Kind::kArray));
  c.sim.machine = d.machine;
  c.sim.mem = d.mem;
  c.sim.switch_policy = d.switch_policy;
  c.sim.priority =
      static_cast<PriorityPolicy>(enum_field(s, "sim", "priority", 2));
  c.sim.miss_policy =
      static_cast<MissPolicy>(enum_field(s, "sim", "miss_policy", 1));
  c.sim.timeslice_cycles =
      int_field<std::uint64_t>(s, "sim", "timeslice_cycles");
  c.sim.instruction_budget =
      int_field<std::uint64_t>(s, "sim", "instruction_budget");
  c.sim.max_cycles = int_field<std::uint64_t>(s, "sim", "max_cycles");
  c.sim.os_seed = seed_field(s, "sim", "os_seed");
  c.sim.stream_seed_base = seed_field(s, "sim", "stream_seed_base");
  return c;
}

void save_case(const std::string& path, const FuzzCase& c) {
  std::ofstream out(path);
  CVMT_REQUIRE(out.good(), "cannot open for writing: " + path);
  c.to_json().write(out);
  out << '\n';
  CVMT_REQUIRE(out.good(), "write failed: " + path);
}

FuzzCase load_case(const std::string& path) {
  std::ifstream in(path);
  CVMT_REQUIRE(in.good(), "cannot open fuzz case: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  FuzzCase c;
  try {
    c = FuzzCase::from_json(JsonValue::parse(text.str()));
  } catch (const CheckError& e) {
    throw CheckError(path + ": " + e.what());
  }
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
