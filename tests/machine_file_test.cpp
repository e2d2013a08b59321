// Machine description files (src/isa/machine_file): the KEY-value
// grammar, parse -> serialize -> parse round trips for every built-in
// and every checked-in example file, diagnostics for malformed files,
// and the resolve_machine() builtin-name-or-path contract.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "isa/machine_file.hpp"
#include "sim/session.hpp"
#include "support/check.hpp"
#include "testgen/generators.hpp"

#ifndef CVMT_SOURCE_DIR
#error "CVMT_SOURCE_DIR must be defined (see CMakeLists.txt)"
#endif

namespace cvmt {
namespace {

std::string machines_dir() {
  return (std::filesystem::path(CVMT_SOURCE_DIR) / "examples" / "machines")
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Expects that parsing `text` throws a CheckError whose message contains
/// `needle`; returns the full message for further checks.
std::string expect_parse_error(const std::string& text,
                               const std::string& needle) {
  try {
    (void)parse_machine_file(text);
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(needle), std::string::npos)
        << "message \"" << msg << "\" does not mention \"" << needle
        << "\"";
    return msg;
  }
  ADD_FAILURE() << "no error for:\n" << text;
  return {};
}

// ------------------------------------------------------------ round trips

TEST(MachineFileTest, EveryBuiltinRoundTripsThroughItsSerialization) {
  for (const std::string& name : builtin_machine_names()) {
    MachineDescription d;
    ASSERT_TRUE(find_builtin_machine(name, d)) << name;
    EXPECT_EQ(d.name, name);
    const std::string text = serialize_machine(d);
    const MachineDescription reparsed = parse_machine_file(text);
    EXPECT_TRUE(reparsed == d) << name << ":\n" << text;
    // Serialization is canonical: a second trip is byte-identical.
    EXPECT_EQ(serialize_machine(reparsed), text) << name;
  }
}

TEST(MachineFileTest, UnknownBuiltinNameIsRejected) {
  MachineDescription d;
  EXPECT_FALSE(find_builtin_machine("vex9x9", d));
}

TEST(MachineFileTest, ExampleFilesLoadAndRoundTrip) {
  int seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(machines_dir())) {
    if (entry.path().extension() != ".machine") continue;
    ++seen;
    const std::string path = entry.path().string();
    const MachineDescription d = load_machine_file(path);
    const MachineDescription reparsed =
        parse_machine_file(serialize_machine(d));
    EXPECT_TRUE(reparsed == d) << path;
  }
  EXPECT_GE(seen, 3) << "examples/machines/ lost its example files";
}

TEST(MachineFileTest, ExampleFilesAreTheBuiltinsSerializations) {
  // The examples mirror built-ins by construction; keeping them byte-equal
  // to serialize_machine() means `cvmt machines FILE` and the docs never
  // drift from the code.
  for (const char* name : {"vex4x4", "het4422", "l2banked", "poststall"}) {
    MachineDescription d;
    ASSERT_TRUE(find_builtin_machine(name, d));
    EXPECT_EQ(read_file(machines_dir() + "/" + name + ".machine"),
              serialize_machine(d))
        << name;
  }
}

TEST(MachineFileTest, HeterogeneousExampleIsActuallyHeterogeneous) {
  const MachineDescription d =
      load_machine_file(machines_dir() + "/het4422.machine");
  EXPECT_FALSE(d.machine.uniform());
  EXPECT_EQ(d.machine.num_clusters, 4);
  EXPECT_EQ(d.machine.cluster_issue(0), 4);
  EXPECT_EQ(d.machine.cluster_issue(2), 2);
  EXPECT_EQ(d.machine.total_issue_width(), 12);
  // Cluster 3 has no multiplier: the mask really parsed as empty.
  EXPECT_EQ(d.machine.slots_for(OpKind::kMul, 3), 0u);
  EXPECT_NE(d.machine.slots_for(OpKind::kMul, 0), 0u);
}

// A machine has one value however it is written down: rows that all have
// one shape, in a .machine file or in a fuzz case's machine lines, are
// the flat machine. They compare equal to it, key like it and serialize
// in its flat form.
TEST(MachineFileTest, IdenticalClusterRowsAreTheFlatMachine) {
  const MachineConfig flat = MachineConfig::vex4x4();
  std::string flat_key;
  append_machine_key(flat_key, flat);

  const MachineDescription d = parse_machine_file(
      "cluster 0 4 0x3 0x4 0x8\ncluster 1 4 0x3 0x4 0x8\n"
      "cluster 2 4 0x3 0x4 0x8\ncluster 3 4 0x3 0x4 0x8\n");
  EXPECT_TRUE(d.machine.uniform());
  EXPECT_EQ(d.machine, flat);
  std::string key;
  append_machine_key(key, d.machine);
  EXPECT_EQ(key, flat_key);
  EXPECT_EQ(serialize_machine(d), serialize_machine(MachineDescription{}));

  FuzzCase c = generate_case(1);
  c.sim.machine = flat;
  JsonValue v = c.to_json();
  JsonValue sim = v.get("sim");
  const JsonValue& flat_lines = sim.get("machine");
  JsonValue lines = JsonValue::array();
  for (std::size_t i = 0; i < flat_lines.size(); ++i) {
    const std::string& line = flat_lines.at(i).as_string();
    if (line.rfind("issue ", 0) == 0)
      for (int k = 0; k < flat.num_clusters; ++k)
        lines.push_back("cluster " + std::to_string(k) + " 4 0x3 0x4 0x8");
    else if (line.find("_slots ") == std::string::npos)
      lines.push_back(line);
  }
  sim.set("machine", std::move(lines));
  v.set("sim", std::move(sim));
  const FuzzCase loaded = FuzzCase::from_json(v);
  EXPECT_EQ(loaded.sim.machine, flat);
  key.clear();
  append_machine_key(key, loaded.sim.machine);
  EXPECT_EQ(key, flat_key);
  EXPECT_EQ(loaded.to_json().dump(), c.to_json().dump());
}

TEST(MachineFileTest, L2BankedExampleConfiguresTheHierarchy) {
  const MachineDescription d =
      load_machine_file(machines_dir() + "/l2banked.machine");
  EXPECT_TRUE(d.mem.has_l2);
  EXPECT_EQ(d.mem.l2.size_bytes, 256u * 1024u);
  EXPECT_EQ(d.mem.dcache_banks, 4);
  EXPECT_EQ(d.mem.bank_conflict_penalty, 2);
  EXPECT_EQ(d.switch_policy, SwitchPolicyKind::kRandomTimeslice);
}

TEST(MachineFileTest, PoststallExampleSelectsThePolicy) {
  const MachineDescription d =
      load_machine_file(machines_dir() + "/poststall.machine");
  EXPECT_EQ(d.switch_policy, SwitchPolicyKind::kPoststall);
}

// ------------------------------------------------------------- grammar

TEST(MachineFileTest, CommentsAndBlankLinesAreIgnored) {
  const MachineDescription d = parse_machine_file(
      "# full-line comment\n"
      "\n"
      "name tiny   # trailing comment\n"
      "clusters 1\n"
      "issue 2\n"
      "mul_slots 0x1\n"
      "mem_slots 0x2\n"
      "branch_slots 0x2\n");
  EXPECT_EQ(d.name, "tiny");
  EXPECT_EQ(d.machine.num_clusters, 1);
  EXPECT_EQ(d.machine.cluster_issue(0), 2);
}

TEST(MachineFileTest, DecimalAndHexMasksAreBothAccepted) {
  const MachineDescription d = parse_machine_file(
      "clusters 1\nissue 4\nmul_slots 3\nmem_slots 0x4\n"
      "branch_slots 8\n");
  EXPECT_EQ(d.machine.slots_for(OpKind::kMul, 0), 0b0011u);
  EXPECT_EQ(d.machine.slots_for(OpKind::kLoad, 0), 0b0100u);
  EXPECT_EQ(d.machine.slots_for(OpKind::kBranch, 0), 0b1000u);
}

// ---------------------------------------------------------- diagnostics

TEST(MachineFileTest, DuplicateKeyNamesTheLine) {
  const std::string msg = expect_parse_error(
      "clusters 2\nissue 4\nclusters 4\n", "duplicate key 'clusters'");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
}

// Errors about the file's content are input errors and carry no source
// path. Each one that a single key causes starts with that key's line,
// values that parse but describe an invalid machine included; a check
// over the whole machine names the keys instead.
TEST(MachineFileTest, ContentErrorsNameTheLineWithoutASourcePath) {
  const struct {
    const char* text;
    const char* start;
  } cases[] = {
      {"name x\nbogus 1\n", "line 2: unknown key 'bogus'"},
      {"clusters four\n", "line 1: not a number: 'four'"},
      {"\nicache 1 2\n", "line 2: 'icache' needs 4 values"},
      {"issue 4\nissue 4\n", "line 2: duplicate key 'issue'"},
      {"cache_sharing maybe\n", "line 1: unknown cache sharing 'maybe'"},
      {"clusters 2\ncluster 5 4 0x3 0x4 0x8\n",
       "line 2: cluster index 5 out of range"},
      // Values that would wrap in the narrowing casts.
      {"clusters 4294967297\n", "line 1: out of range: '4294967297'"},
      {"\nmul_slots 0x100000003\n", "line 2: out of range: '0x100000003'"},
      // Flat shapes: the line of the last flat key. mul slot 4 does not
      // exist in a 2-wide cluster.
      {"clusters 1\nissue 2\nmul_slots 0x4\n",
       "line 3: mul slot beyond issue width"},
      {"name x\nmul_slots 0x30\n", "line 2: mul slot beyond issue width"},
      {"issue 2\n", "line 1: mem slot beyond issue width"},
      {"issue 9\n", "line 1: issue width out of range"},
      {"branch_slots 0\n", "line 1: machine needs at least one branch unit"},
      // Cluster rows: the row's line.
      {"clusters 2\ncluster 0 4 0x3 0x4 0x8\ncluster 1 2 0x1 0x4 0x2\n",
       "line 3: mem slot beyond issue width"},
      {"clusters 1\ncluster 0 9 0x3 0x4 0x8\n",
       "line 2: issue width out of range"},
      // Machine values no other key constrains.
      {"clusters 9\n", "line 1: cluster count out of range"},
      {"clusters 9\ncluster 8 4 0x3 0x4 0x8\n",
       "line 1: cluster count out of range"},
      {"name x\n\nclusters 0\n", "line 3: cluster count out of range"},
      {"mem_latency 0\n", "line 1: latencies must be positive"},
      // Caches and the rest of the memory system.
      {"icache 65536 48 4 20\n", "line 1: line size must be a power of two"},
      {"name x\ndcache 65536 64 0 20\n", "line 2: at least one way"},
      {"l2 1000 64 4 80\n", "line 1: size must be a multiple of line*ways"},
      {"dcache_banks 3\n",
       "line 1: dcache bank count must be a power of two"},
      // A packet's banks are one bit each of a 32-bit mask.
      {"name x\ndcache_banks 64\n",
       "line 2: dcache bank count 64 exceeds 32"},
      // Checks over the whole machine.
      {"clusters 8\nissue 8\n",
       "'clusters' x 'issue': total issue width 64 exceeds 32"},
      {"clusters 2\ncluster 0 4 0x3 0x0 0x8\ncluster 1 4 0x3 0x0 0x8\n",
       "'cluster' rows: machine needs at least one LSU"},
  };
  for (const auto& c : cases) {
    const std::string msg = expect_parse_error(c.text, c.start);
    EXPECT_EQ(msg.find(c.start), 0u) << msg;
    EXPECT_EQ(msg.find("CVMT_CHECK"), std::string::npos) << msg;
    EXPECT_EQ(msg.find(".cpp:"), std::string::npos) << msg;
  }
}

TEST(MachineFileTest, UnknownSwitchPolicyListsTheChoices) {
  const std::string msg = expect_parse_error("switch_policy lottery\n",
                                             "unknown switch policy");
  EXPECT_NE(msg.find("random|prestall|poststall"), std::string::npos)
      << msg;
}

TEST(MachineFileTest, UnknownKeyNamesTheKey) {
  expect_parse_error("turbo_boost 9000\n", "unknown key 'turbo_boost'");
}

TEST(MachineFileTest, NonNumericValueIsDiagnosed) {
  expect_parse_error("clusters four\n", "not a number: 'four'");
}

// Regression: parse_u64 used bare strtoull, which skips a leading sign —
// `issue -1` wrapped to 18446744073709551615 and sailed through the
// parser. Signed values must be rejected with the line number, exactly
// like the CVMT_* environment parser rejects them.
TEST(MachineFileTest, SignedValuesAreRejectedNotWrapped) {
  const std::string msg =
      expect_parse_error("clusters 1\nissue -1\n", "not a number: '-1'");
  EXPECT_NE(msg.find("line 2:"), std::string::npos) << msg;
  expect_parse_error("clusters +2\n", "not a number: '+2'");
  expect_parse_error("alu_latency -4096\n", "not a number: '-4096'");
}

TEST(MachineFileTest, TrailingGarbageAndOverflowAreRejected) {
  expect_parse_error("clusters 4x\n", "not a number: '4x'");
  expect_parse_error("issue 4.5\n", "not a number: '4.5'");
  // One past UINT64_MAX.
  expect_parse_error("alu_latency 18446744073709551616\n",
                     "not a number: '18446744073709551616'");
}

TEST(MachineFileTest, HexMasksStillParseAfterTheStrictness) {
  // Strict parsing must keep base-0 semantics: 0x masks are the idiom in
  // every example file.
  const MachineDescription d = parse_machine_file(
      "clusters 1\nissue 2\nmul_slots 0x2\nmem_slots 0x1\n"
      "branch_slots 0x2\n");
  EXPECT_EQ(d.machine.num_clusters, 1);
  EXPECT_EQ(d.machine.cluster_issue(0), 2);
  EXPECT_EQ(d.machine.slots_for(OpKind::kMul, 0), 0x2u);
}

TEST(MachineFileTest, WrongCacheArityIsDiagnosed) {
  expect_parse_error("icache 65536 64\n", "'icache' needs 4 values");
}

TEST(MachineFileTest, ClusterRowsCannotMixWithFlatShapeKeys) {
  expect_parse_error(
      "clusters 2\nissue 4\ncluster 0 4 0x3 0x4 0x8\n"
      "cluster 1 4 0x3 0x4 0x8\n",
      "'cluster' rows cannot be mixed");
}

TEST(MachineFileTest, ClusterIndexOutOfRangeIsDiagnosed) {
  expect_parse_error(
      "clusters 2\ncluster 0 4 0x3 0x4 0x8\ncluster 2 4 0x3 0x4 0x8\n",
      "cluster index 2 out of range (0..1)");
}

TEST(MachineFileTest, DuplicateClusterRowIsDiagnosed) {
  expect_parse_error(
      "clusters 2\ncluster 0 4 0x3 0x4 0x8\ncluster 0 4 0x3 0x4 0x8\n",
      "duplicate cluster index 0");
}

TEST(MachineFileTest, MissingClusterRowIsDiagnosed) {
  expect_parse_error("clusters 2\ncluster 0 4 0x3 0x4 0x8\n",
                     "missing 'cluster 1' row");
}

// ------------------------------------------------------- resolve_machine

TEST(MachineFileTest, ResolveFindsBuiltinsByName) {
  const MachineDescription d = resolve_machine("het4422");
  EXPECT_FALSE(d.machine.uniform());
}

TEST(MachineFileTest, ResolveLoadsFilesByPath) {
  const MachineDescription d =
      resolve_machine(machines_dir() + "/l2banked.machine");
  EXPECT_TRUE(d.mem.has_l2);
}

TEST(MachineFileTest, ResolveRejectsUnknownSpecs) {
  try {
    (void)resolve_machine("no-such-machine");
    FAIL() << "resolve_machine accepted a bogus spec";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown machine"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace cvmt
