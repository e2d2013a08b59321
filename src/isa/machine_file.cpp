#include "isa/machine_file.hpp"

#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "support/string_util.hpp"

namespace cvmt {
namespace {

std::string at(int line_no) {
  return "line " + std::to_string(line_no) + ": ";
}

/// Whitespace tokenizer (any run of spaces/tabs separates tokens).
std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

std::uint64_t parse_u64(const std::string& tok, int line_no,
                        std::uint64_t max = UINT64_MAX) {
  // parse_u64_token rejects what bare strtoull silently accepts: a
  // leading sign (issue=-1 would wrap to 18446744073709551615), trailing
  // garbage, and out-of-range values. Base 0 keeps 0x-prefixed slot
  // masks working. `max` keeps the narrowing casts below from wrapping.
  std::uint64_t v = 0;
  CVMT_REQUIRE(parse_u64_token(tok, v, 0),
               at(line_no) + "not a number: '" + tok + "'");
  CVMT_REQUIRE(v <= max, at(line_no) + "out of range: '" + tok + "'");
  return v;
}

int parse_int(const std::string& tok, int line_no) {
  return static_cast<int>(parse_u64(tok, line_no, INT_MAX));
}

std::uint32_t parse_u32(const std::string& tok, int line_no) {
  return static_cast<std::uint32_t>(parse_u64(tok, line_no, UINT32_MAX));
}

/// Runs `check`, prefixing its error with the line that set the rejected
/// value.
template <typename Check>
void on_line(int line_no, const Check& check) {
  try {
    check();
  } catch (const CheckError& e) {
    throw CheckError(at(line_no) + e.what());
  }
}

std::string hex(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%" PRIx32, v);
  return buf;
}

CacheConfig parse_cache(const std::vector<std::string>& tokens,
                        int line_no) {
  CVMT_REQUIRE(tokens.size() == 5,
               at(line_no) + "'" + tokens[0] +
                   "' needs 4 values: size_bytes line_bytes ways "
                   "miss_penalty");
  CacheConfig c;
  c.size_bytes = parse_u64(tokens[1], line_no);
  c.line_bytes = parse_u32(tokens[2], line_no);
  c.ways = parse_u32(tokens[3], line_no);
  c.miss_penalty = parse_int(tokens[4], line_no);
  return c;
}

void emit_cache(std::ostringstream& os, const char* key,
                const CacheConfig& c) {
  os << key << ' ' << c.size_bytes << ' ' << c.line_bytes << ' ' << c.ways
     << ' ' << c.miss_penalty << "\n";
}

/// One pending `cluster` row (applied once `clusters` is known).
struct ClusterRow {
  int index = 0;
  ClusterShape shape;
  int line_no = 0;
};

}  // namespace

MachineDescription parse_machine_file(std::string_view text) {
  MachineDescription d;
  std::set<std::string> seen;
  std::vector<ClusterRow> rows;
  ClusterShape flat;        // what issue/*_slots set for every cluster
  int flat_shape_line = 0;  // last line that set issue/*_slots, 0 if none

  int line_no = 0;
  for (std::string raw : split(text, '\n')) {
    ++line_no;
    if (const std::size_t hash = raw.find('#'); hash != std::string::npos)
      raw.resize(hash);
    const std::vector<std::string> tok = tokenize(trim(raw));
    if (tok.empty()) continue;
    const std::string& key = tok[0];

    if (key != "cluster") {
      CVMT_REQUIRE(seen.insert(key).second,
                   at(line_no) + "duplicate key '" + key + "'");
    }
    const auto need = [&](std::size_t args, const char* what) {
      CVMT_REQUIRE(tok.size() == args + 1,
                   at(line_no) + "'" + key + "' needs " + what);
    };
    // A machine value that no other key constrains, checked on the
    // default machine so that an error names this line.
    const auto machine_scalar = [&](int MachineConfig::*field,
                                    const char* what) {
      need(1, what);
      d.machine.*field = parse_int(tok[1], line_no);
      MachineConfig alone;
      alone.*field = d.machine.*field;
      on_line(line_no, [&] { alone.validate(); });
    };

    if (key == "name") {
      need(1, "a machine name");
      d.name = tok[1];
    } else if (key == "clusters") {
      machine_scalar(&MachineConfig::num_clusters, "a cluster count");
    } else if (key == "issue") {
      need(1, "an issue width");
      flat.issue_width = parse_int(tok[1], line_no);
      flat_shape_line = line_no;
    } else if (key == "mul_slots") {
      need(1, "a slot mask");
      flat.mul_slot_mask = parse_u32(tok[1], line_no);
      flat_shape_line = line_no;
    } else if (key == "mem_slots") {
      need(1, "a slot mask");
      flat.mem_slot_mask = parse_u32(tok[1], line_no);
      flat_shape_line = line_no;
    } else if (key == "branch_slots") {
      need(1, "a slot mask");
      flat.branch_slot_mask = parse_u32(tok[1], line_no);
      flat_shape_line = line_no;
    } else if (key == "cluster") {
      need(5, "5 values: index issue_width mul_slots mem_slots "
              "branch_slots");
      ClusterRow row;
      row.index = parse_int(tok[1], line_no);
      row.shape.issue_width = parse_int(tok[2], line_no);
      row.shape.mul_slot_mask = parse_u32(tok[3], line_no);
      row.shape.mem_slot_mask = parse_u32(tok[4], line_no);
      row.shape.branch_slot_mask = parse_u32(tok[5], line_no);
      on_line(line_no, [&] { row.shape.validate(); });
      row.line_no = line_no;
      rows.push_back(row);
    } else if (key == "alu_latency") {
      machine_scalar(&MachineConfig::alu_latency, "a latency");
    } else if (key == "mul_latency") {
      machine_scalar(&MachineConfig::mul_latency, "a latency");
    } else if (key == "mem_latency") {
      machine_scalar(&MachineConfig::mem_latency, "a latency");
    } else if (key == "taken_branch_penalty") {
      machine_scalar(&MachineConfig::taken_branch_penalty, "a cycle count");
    } else if (key == "icache") {
      d.mem.icache = parse_cache(tok, line_no);
    } else if (key == "dcache") {
      d.mem.dcache = parse_cache(tok, line_no);
    } else if (key == "l2") {
      d.mem.l2 = parse_cache(tok, line_no);
      d.mem.has_l2 = true;
    } else if (key == "cache_sharing") {
      need(1, "'shared' or 'private'");
      if (tok[1] == "shared") {
        d.mem.sharing = CacheSharing::kShared;
      } else if (tok[1] == "private") {
        d.mem.sharing = CacheSharing::kPrivate;
      } else {
        throw CheckError(at(line_no) + "unknown cache sharing '" + tok[1] +
                         "' (shared|private)");
      }
    } else if (key == "perfect_memory") {
      need(1, "0 or 1");
      d.mem.perfect = parse_u64(tok[1], line_no) != 0;
    } else if (key == "dcache_banks") {
      need(1, "a bank count");
      d.mem.dcache_banks = parse_int(tok[1], line_no);
    } else if (key == "bank_conflict_penalty") {
      need(1, "a cycle count");
      d.mem.bank_conflict_penalty = parse_int(tok[1], line_no);
    } else if (key == "switch_policy") {
      need(1, "'random', 'prestall' or 'poststall'");
      CVMT_REQUIRE(switch_policy_from_string(tok[1], d.switch_policy),
                   at(line_no) + "unknown switch policy '" + tok[1] +
                       "' (random|prestall|poststall)");
    } else {
      throw CheckError(at(line_no) + "unknown key '" + key + "'");
    }
    // Every memory value is checked on its own, and the memory system was
    // valid before this line, so an error here is this line's.
    on_line(line_no, [&] { d.mem.validate(); });
  }

  if (!rows.empty()) {
    CVMT_REQUIRE(flat_shape_line == 0,
                 at(flat_shape_line == 0 ? rows[0].line_no
                                         : flat_shape_line) +
                     "'cluster' rows cannot be mixed with flat "
                     "issue/*_slots keys");
    std::array<bool, kMaxClusters> have{};
    for (const ClusterRow& row : rows) {
      CVMT_REQUIRE(row.index >= 0 && row.index < d.machine.num_clusters,
                   at(row.line_no) + "cluster index " +
                       std::to_string(row.index) + " out of range (0.." +
                       std::to_string(d.machine.num_clusters - 1) + ")");
      CVMT_REQUIRE(!have[static_cast<std::size_t>(row.index)],
                   at(row.line_no) + "duplicate cluster index " +
                       std::to_string(row.index));
      have[static_cast<std::size_t>(row.index)] = true;
      d.machine.per_cluster[static_cast<std::size_t>(row.index)] =
          row.shape;
    }
    for (int c = 0; c < d.machine.num_clusters; ++c)
      CVMT_REQUIRE(have[static_cast<std::size_t>(c)],
                   "missing 'cluster " + std::to_string(c) +
                       "' row (clusters = " +
                       std::to_string(d.machine.num_clusters) + ")");
  } else {
    // The flat keys together set one shape for every cluster, checked on
    // the default cluster count, on which every valid shape fits.
    d.machine.per_cluster.fill(flat);
    MachineConfig alone = d.machine;
    alone.num_clusters = MachineConfig{}.num_clusters;
    on_line(flat_shape_line, [&] { alone.validate(); });
  }

  // What is left spans several keys: the cluster count against the flat
  // issue width, or the total width and the units of all cluster rows.
  try {
    d.machine.validate();
  } catch (const CheckError& e) {
    throw CheckError((rows.empty() ? "'clusters' x 'issue': "
                                   : "'cluster' rows: ") +
                     std::string(e.what()));
  }
  return d;
}

MachineDescription load_machine_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CVMT_REQUIRE(in.good(), "cannot read machine file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_machine_file(text.str());
}

std::string serialize_machine(const MachineDescription& desc) {
  const MachineConfig& m = desc.machine;
  std::ostringstream os;
  os << "# cvmt machine description\n";
  os << "name " << desc.name << "\n";
  os << "clusters " << m.num_clusters << "\n";
  if (m.uniform()) {
    const ClusterShape& s = m.per_cluster[0];
    os << "issue " << s.issue_width << "\n";
    os << "mul_slots " << hex(s.mul_slot_mask) << "\n";
    os << "mem_slots " << hex(s.mem_slot_mask) << "\n";
    os << "branch_slots " << hex(s.branch_slot_mask) << "\n";
  } else {
    for (int c = 0; c < m.num_clusters; ++c) {
      const ClusterShape& s = m.per_cluster[static_cast<std::size_t>(c)];
      os << "cluster " << c << ' ' << s.issue_width << ' '
         << hex(s.mul_slot_mask) << ' ' << hex(s.mem_slot_mask) << ' '
         << hex(s.branch_slot_mask) << "\n";
    }
  }
  os << "alu_latency " << m.alu_latency << "\n";
  os << "mul_latency " << m.mul_latency << "\n";
  os << "mem_latency " << m.mem_latency << "\n";
  os << "taken_branch_penalty " << m.taken_branch_penalty << "\n";
  emit_cache(os, "icache", desc.mem.icache);
  emit_cache(os, "dcache", desc.mem.dcache);
  if (desc.mem.has_l2) emit_cache(os, "l2", desc.mem.l2);
  os << "cache_sharing "
     << (desc.mem.sharing == CacheSharing::kShared ? "shared" : "private")
     << "\n";
  os << "perfect_memory " << (desc.mem.perfect ? 1 : 0) << "\n";
  os << "dcache_banks " << desc.mem.dcache_banks << "\n";
  os << "bank_conflict_penalty " << desc.mem.bank_conflict_penalty << "\n";
  os << "switch_policy " << to_string(desc.switch_policy) << "\n";
  return os.str();
}

std::vector<std::string> builtin_machine_names() {
  return {"vex4x4", "vex4x2", "het4422", "l2banked", "prestall",
          "poststall"};
}

bool find_builtin_machine(std::string_view name, MachineDescription& out) {
  if (name == "vex4x4") {
    out = MachineDescription{};
  } else if (name == "vex4x2") {
    MachineDescription d;
    d.name = "vex4x2";
    d.machine = MachineConfig::vex4x2();
    out = d;
  } else if (name == "het4422") {
    // Two full-width VEX clusters plus two narrow helper clusters; the
    // last cluster has no multiplier at all (capability lives elsewhere).
    MachineDescription d;
    d.name = "het4422";
    const ClusterShape shapes[4] = {
        {4, 0b0011, 0b0100, 0b1000},
        {4, 0b0011, 0b0100, 0b1000},
        {2, 0b01, 0b10, 0b10},
        {2, 0b00, 0b10, 0b10},
    };
    d.machine = MachineConfig::heterogeneous_of(shapes, 4);
    out = d;
  } else if (name == "l2banked") {
    // vex4x4 with a 256KB unified L2 and a 4-banked DCache.
    MachineDescription d;
    d.name = "l2banked";
    d.mem.has_l2 = true;
    d.mem.l2 = CacheConfig{256 * 1024, 64, 8, 80};
    d.mem.dcache_banks = 4;
    d.mem.bank_conflict_penalty = 2;
    out = d;
  } else if (name == "prestall") {
    MachineDescription d;
    d.name = "prestall";
    d.switch_policy = SwitchPolicyKind::kPrestall;
    out = d;
  } else if (name == "poststall") {
    MachineDescription d;
    d.name = "poststall";
    d.switch_policy = SwitchPolicyKind::kPoststall;
    out = d;
  } else {
    return false;
  }
  return true;
}

MachineDescription resolve_machine(const std::string& spec) {
  MachineDescription d;
  if (find_builtin_machine(spec, d)) return d;
  std::ifstream probe(spec);
  CVMT_REQUIRE(probe.good(),
               "unknown machine '" + excerpt(spec) +
                   "': not a built-in machine and not a readable "
                   ".machine file");
  return load_machine_file(spec);
}

}  // namespace cvmt
