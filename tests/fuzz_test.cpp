// The property-based differential fuzzing subsystem (src/testgen):
// generator well-formedness and determinism, corpus replay of the
// checked-in repro files, the fixed 200-case tier-1 sweep (deterministic
// and worker-count invariant), FuzzCase serialization round trips, and
// greedy-shrinker minimization under synthetic failure predicates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "isa/machine_file.hpp"
#include "sim/session.hpp"
#include "support/string_util.hpp"
#include "testgen/fuzz_driver.hpp"
#include "testgen/generators.hpp"

#ifndef CVMT_SOURCE_DIR
#error "CVMT_SOURCE_DIR must be defined (see CMakeLists.txt)"
#endif

namespace cvmt {
namespace {

std::string corpus_dir() {
  return std::string(CVMT_SOURCE_DIR) + "/tests/corpus";
}

// ----------------------------------------------------------- generators

TEST(SchemeGenTest, ProducesWellFormedDiverseSchemes) {
  bool saw_select = false;
  bool saw_parallel = false;
  bool saw_wide = false;  // beyond the ablation's 8 threads
  std::set<std::string> distinct;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    SchemeGen gen(seed);
    const Scheme s = gen.next();
    ASSERT_GE(s.num_threads(), 1);
    ASSERT_LE(s.num_threads(), kMaxThreads);
    // Construction already validated; validate() must agree.
    EXPECT_EQ(Scheme::validate(s.root()), "");
    // Canonical text round-trips through the parser.
    const Scheme reparsed = Scheme::parse(s.canonical());
    EXPECT_EQ(reparsed.canonical(), s.canonical());
    EXPECT_EQ(reparsed.num_threads(), s.num_threads());
    saw_select = saw_select || s.count_blocks(MergeKind::kSelect) > 0;
    saw_parallel = saw_parallel || s.canonical().find("CP(") !=
                                       std::string::npos;
    saw_wide = saw_wide || s.num_threads() > 8;
    distinct.insert(s.canonical());
  }
  EXPECT_TRUE(saw_select);
  EXPECT_TRUE(saw_parallel);
  EXPECT_TRUE(saw_wide);
  EXPECT_GT(distinct.size(), 150u);  // actual diversity, not repetition
}

TEST(SchemeGenTest, FixedThreadCountIsHonoured) {
  SchemeGen gen(7);
  for (int n = 1; n <= kMaxThreads; ++n)
    EXPECT_EQ(gen.next(n).num_threads(), n);
}

TEST(WorkloadGenTest, ProfilesStayInTheValidatedEnvelope) {
  WorkloadGen gen(11);
  for (int i = 0; i < 100; ++i) {
    const BenchmarkProfile p = gen.next("p" + std::to_string(i));
    p.validate();  // throws on any violation
    // The builder's 4KB code region must fit worst-case bodies.
    EXPECT_LE(p.code_bytes_per_instr, 16u);
    EXPECT_GE(p.target_ipc_perfect, 0.9);
  }
}

TEST(MachineGenTest, ShapesValidateAndStayWithinTotalOps) {
  MachineGen gen(13);
  for (int i = 0; i < 100; ++i) {
    const MachineConfig m = gen.next_machine();
    m.validate();
    EXPECT_LE(m.num_clusters * m.max_issue_per_cluster(), kMaxTotalOps);
    const MemorySystemConfig mem = gen.next_memory();
    mem.icache.validate();
    mem.dcache.validate();
  }
}

TEST(MachineGenTest, NewMachineAxesAreAllExercised) {
  // Heterogeneous shapes, L2 hierarchies, banked DCaches and every switch
  // policy must each appear with real frequency — otherwise the five
  // differential oracles silently stop covering the new machine axes.
  int het = 0, mixed_widths = 0, no_mul_cluster = 0;
  int l2 = 0, banked = 0;
  std::set<SwitchPolicyKind> policies;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const FuzzCase c = generate_case(seed);
    c.sim.machine.validate();
    c.sim.mem.validate();
    if (!c.sim.machine.uniform()) {
      ++het;
      const MachineConfig& m = c.sim.machine;
      for (int cl = 1; cl < m.num_clusters; ++cl)
        if (m.cluster_issue(cl) != m.cluster_issue(0)) {
          ++mixed_widths;
          break;
        }
      for (int cl = 0; cl < m.num_clusters; ++cl)
        if (m.slots_for(OpKind::kMul, cl) == 0) {
          ++no_mul_cluster;
          break;
        }
    }
    if (c.sim.mem.has_l2) ++l2;
    if (c.sim.mem.dcache_banks > 1) ++banked;
    policies.insert(c.sim.switch_policy);
  }
  EXPECT_GT(het, 20);
  EXPECT_GT(mixed_widths, 10);       // widths genuinely differ, not 4+4+4
  EXPECT_GT(no_mul_cluster, 5);      // capability-free clusters occur
  EXPECT_GT(l2, 40);
  EXPECT_GT(banked, 60);
  EXPECT_EQ(policies.size(), 3u);    // random, prestall, poststall
}

TEST(CaseGenTest, CasesAreReproducibleFromTheirSeed) {
  const FuzzCase a = generate_case(12345);
  const FuzzCase b = generate_case(12345);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  const FuzzCase c = generate_case(12346);
  EXPECT_NE(a.to_json().dump(), c.to_json().dump());
}

// A case's machine, memory system and switch policy are one `.machine`
// description: for every machine the fuzzer makes and every corpus
// case's, the canonical text parses back to the same description.
TEST(CaseGenTest, EveryGeneratedMachineRoundTripsThroughMachineText) {
  std::vector<FuzzCase> cases = load_corpus_dir(corpus_dir());
  ASSERT_GE(cases.size(), 5u) << "corpus missing at " << corpus_dir();
  for (std::uint64_t seed = 0; seed < 2000; ++seed)
    cases.push_back(generate_case(seed));
  for (const FuzzCase& c : cases) {
    MachineDescription d;
    d.machine = c.sim.machine;
    d.mem = c.sim.mem;
    d.switch_policy = c.sim.switch_policy;
    const std::string text = serialize_machine(d);
    try {
      EXPECT_TRUE(parse_machine_file(text) == d) << c.label << ":\n" << text;
    } catch (const CheckError& e) {
      ADD_FAILURE() << c.label << ": " << e.what() << "\n" << text;
    }
  }
}

TEST(CaseGenTest, JsonAndFileRoundTrip) {
  // Seed 99 has a uniform machine; seed 11 has cluster rows, an L2, a
  // banked DCache and a switch policy other than the default.
  for (std::uint64_t seed : {99u, 11u}) {
    const FuzzCase a = generate_case(seed);
    const JsonValue v = a.to_json();
    EXPECT_EQ(v.get("version").as_int(), 2);
    const FuzzCase b = FuzzCase::from_json(v);
    EXPECT_EQ(b.sim.machine, a.sim.machine);
    EXPECT_TRUE(b.sim.mem == a.sim.mem);
    EXPECT_EQ(b.sim.switch_policy, a.sim.switch_policy);
    EXPECT_EQ(v.dump(), b.to_json().dump());

    const std::string path =
        (std::filesystem::temp_directory_path() / "cvmt_fuzz_rt.json")
            .string();
    save_case(path, a);
    const FuzzCase c = load_case(path);
    EXPECT_EQ(v.dump(), c.to_json().dump());
    std::remove(path.c_str());
  }
}

/// The sim.machine lines of the case `v`.
std::vector<std::string> machine_lines_of(const JsonValue& v) {
  std::vector<std::string> lines;
  const JsonValue& machine = v.get("sim").get("machine");
  for (std::size_t i = 0; i < machine.size(); ++i)
    lines.push_back(machine.at(i).as_string());
  return lines;
}

/// `v` with `lines` as its sim.machine lines.
JsonValue with_machine_lines(const JsonValue& v,
                             const std::vector<std::string>& lines) {
  JsonValue machine = JsonValue::array();
  for (const std::string& line : lines) machine.push_back(line);
  JsonValue sim = v.get("sim");
  sim.set("machine", std::move(machine));
  JsonValue out = v;
  out.set("sim", std::move(sim));
  return out;
}

/// `cvmt fuzz --case=` on a file holding `text`: its exit code, and what
/// `load_case` rejects the file with after the path it names first (""
/// when it loads).
std::pair<int, std::string> replay_file(const std::string& text) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "cvmt_fuzz_bad.json")
          .string();
  std::ofstream(path) << text;
  std::string error;
  try {
    (void)load_case(path);
  } catch (const CheckError& e) {
    error = e.what();
    EXPECT_EQ(error.find(path + ": "), 0u) << error;
    error.erase(0, path.size() + 2);
  }
  const std::string flag = "--case=" + path;
  const char* argv[] = {"fuzz", flag.c_str()};
  const int code = error.empty() ? -1 : fuzz_main(2, argv);
  std::remove(path.c_str());
  return {code, error};
}

TEST(CaseGenTest, ClusterCountBeyondTheMachineCapIsRejectedOnLoad) {
  // Nine clusters and nine rows: per_cluster holds kMaxClusters (8)
  // shapes, so the count must be refused before any row is written, and
  // `cvmt fuzz --case=` exits 2 as for any other malformed file.
  std::vector<std::string> lines = {"clusters 9"};
  for (int c = 0; c <= kMaxClusters; ++c)
    lines.push_back("cluster " + std::to_string(c) + " 1 0x1 0x1 0x1");
  const JsonValue v = with_machine_lines(generate_case(1).to_json(), lines);
  const auto [code, error] = replay_file(v.dump());
  EXPECT_EQ(error.find("fuzz case: sim.machine: line 1: cluster count out "
                       "of range"),
            0u)
      << error;
  EXPECT_EQ(code, 2);
}

/// `v` with the integer at `path` set to `value`. Each step is an object
/// key, or an array index written in decimal; the last key may be absent.
JsonValue with_int(const JsonValue& v, std::span<const std::string> path,
                   std::int64_t value) {
  if (path.empty()) return JsonValue(value);
  if (v.kind() == JsonValue::Kind::kArray) {
    const std::size_t index = std::stoul(path[0]);
    JsonValue out = JsonValue::array();
    for (std::size_t i = 0; i < v.size(); ++i)
      out.push_back(i == index ? with_int(v.at(i), path.subspan(1), value)
                               : v.at(i));
    return out;
  }
  JsonValue out = v;
  out.set(path[0], path.size() == 1
                       ? JsonValue(value)
                       : with_int(v.get(path[0]), path.subspan(1), value));
  return out;
}

TEST(CaseGenTest, IntegersThatDoNotFitTheirFieldAreRejectedOnLoad) {
  // Each integer is checked against its field's type before the cast.
  // Unchecked, an int or uint32 field raised by 2^32 would wrap back to
  // the value it was raised from and the case would replay "ok", and a
  // negative size or count would wrap to a huge unsigned one. Seeds are
  // the one exception: to_json writes them as the int64 with their bit
  // pattern.
  const JsonValue base = generate_case(1).to_json();
  constexpr std::int64_t k2to32 = std::int64_t{1} << 32;

  // The machine and memory system: one value of a sim.machine line,
  // raised by 2^32. Cluster rows read "cluster index issue mul mem
  // branch"; caches read "size line ways miss_penalty".
  const struct {
    const char* key;
    std::size_t token;
  } line_cases[] = {
      {"cluster", 2},      {"mul_latency", 1}, {"cluster", 3},
      {"dcache", 2},       {"icache", 3},      {"dcache", 4},
      {"dcache_banks", 1}, {"bank_conflict_penalty", 1},
  };
  for (const auto& c : line_cases) {
    std::vector<std::string> lines = machine_lines_of(base);
    std::size_t at = 0;
    while (at < lines.size() && lines[at].rfind(std::string(c.key) + " ", 0))
      ++at;
    ASSERT_LT(at, lines.size()) << c.key;
    std::vector<std::string> tokens = split(lines[at], ' ');
    tokens[c.token] = std::to_string(
        static_cast<std::int64_t>(std::stoull(tokens[c.token], nullptr, 0)) +
        k2to32);
    lines[at] = tokens[0];
    for (std::size_t t = 1; t < tokens.size(); ++t)
      lines[at] += " " + tokens[t];
    const std::string want = "fuzz case: sim.machine: line " +
                             std::to_string(at + 1) + ": out of range: '" +
                             tokens[c.token] + "'";
    try {
      (void)FuzzCase::from_json(with_machine_lines(base, lines));
      ADD_FAILURE() << lines[at] << " loaded";
    } catch (const CheckError& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  }

  // The profiles and the run: a JSON field.
  const struct {
    std::vector<std::string> path;
    std::int64_t value;
    const char* name;
  } field_cases[] = {
      {{"profiles", "0", "num_loops"}, 2 + k2to32,
       "profiles[0].num_loops 4294967298"},
      {{"profiles", "0", "hot_bytes"}, -4096, "profiles[0].hot_bytes -4096"},
      {{"sim", "instruction_budget"}, -1, "sim.instruction_budget -1"},
  };
  for (const auto& c : field_cases) {
    const JsonValue v = with_int(base, c.path, c.value);
    try {
      (void)FuzzCase::from_json(v);
      ADD_FAILURE() << c.name << " loaded";
    } catch (const CheckError& e) {
      EXPECT_EQ(std::string(e.what()).find(std::string("fuzz case: ") +
                                           c.name + " out of range"),
                0u)
          << e.what();
    }
  }

  // The replay command refuses the file as malformed input.
  std::vector<std::string> lines = machine_lines_of(base);
  lines[0] = "clusters 4294967301";
  EXPECT_EQ(replay_file(with_machine_lines(base, lines).dump()).first, 2);
}

// A case file that cannot load is a usage error (exit 2) whose message
// names the field, the version or the sim.machine line at fault, and
// carries no source path.
TEST(CaseGenTest, MalformedCaseFilesAreRejectedByName) {
  const JsonValue base = generate_case(99).to_json();
  const auto with = [&](const char* key, JsonValue value) {
    JsonValue v = base;
    v.set(key, std::move(value));
    return v.dump();
  };
  const auto with_sim = [&](const char* key, JsonValue value) {
    JsonValue sim = base.get("sim");
    sim.set(key, std::move(value));
    return with("sim", std::move(sim));
  };
  std::vector<std::string> bad_line = machine_lines_of(base);
  bad_line[1] = "issue four";
  std::vector<std::string> unknown_key = machine_lines_of(base);
  unknown_key.push_back("turbo 1");
  JsonValue profiles = JsonValue::array();
  profiles.push_back(JsonValue::object());
  const struct {
    std::string text;
    const char* start;
  } cases[] = {
      {R"({"version":1})", "fuzz case: version 1 "},
      {with("version", 3), "fuzz case: version 3 "},
      {R"({"version":2})", "fuzz case: missing label"},
      {"[2]", "fuzz case: the case is not an object"},
      {with("label", 5), "fuzz case: label is not a string"},
      {with("seed", "x"), "fuzz case: seed is not an integer"},
      {with("profiles", profiles), "fuzz case: missing profiles[0].name"},
      {with("profiles", JsonValue::object()),
       "fuzz case: profiles is not an array"},
      {with("sim", JsonValue::array()), "fuzz case: sim is not an object"},
      {with_sim("machine", "clusters 4"),
       "fuzz case: sim.machine is not an array"},
      {with_sim("priority", 3), "fuzz case: sim.priority 3 out of range"},
      {with_sim("miss_policy", 2),
       "fuzz case: sim.miss_policy 2 out of range"},
      {with_sim("os_seed", 1.5), "fuzz case: sim.os_seed is not an integer"},
      {with_machine_lines(base, bad_line).dump(),
       "fuzz case: sim.machine: line 2: not a number: 'four'"},
      {with_machine_lines(base, unknown_key).dump(),
       "fuzz case: sim.machine: line 17: unknown key 'turbo'"},
      {with_machine_lines(base, {"clusters 4\nissue 2"}).dump(),
       "fuzz case: sim.machine: line 1 is not one line of text"},
  };
  for (const auto& c : cases) {
    const auto [code, error] = replay_file(c.text);
    EXPECT_EQ(error.find(c.start), 0u) << error;
    EXPECT_EQ(error.find("CVMT_CHECK"), std::string::npos) << error;
    EXPECT_EQ(error.find(".cpp:"), std::string::npos) << error;
    EXPECT_EQ(code, 2) << c.start;
  }
  {
    JsonValue v = base;
    JsonValue profs = JsonValue::array();
    JsonValue p = base.get("profiles").at(0);
    p.set("ilp", "Q");
    profs.push_back(std::move(p));
    v.set("profiles", std::move(profs));
    const auto [code, error] = replay_file(v.dump());
    EXPECT_EQ(error, "fuzz case: profiles[0].ilp 'Q' is not L, M or H");
    EXPECT_EQ(code, 2);
  }
}

// ------------------------------------------------------------- oracles

TEST(OracleTest, CompareReportsFirstMismatchingCounter) {
  SimResult a;
  a.scheme = "S(0,1)";
  a.cycles = 100;
  SimResult b = a;
  EXPECT_EQ(compare_sim_results(a, b, true), "");
  b.cycles = 101;
  EXPECT_EQ(compare_sim_results(a, b, true), "cycles: 100 != 101");
  b = a;
  b.threads.emplace_back();
  EXPECT_EQ(compare_sim_results(a, b, true), "threads.size: 0 != 1");
}

TEST(OracleTest, CompareNamesEveryEncodedField) {
  // One field at a time, every field the result store writes: the diff
  // must name the field's path in the encoding. A thread's instructions
  // and ops are written twice, first beside its stats, so the diff names
  // that first copy. Without merge statistics, exactly the kFast-zeroed
  // counters are skipped.
  ArtifactCache cache;
  SimConfig cfg;
  cfg.instruction_budget = 800;
  cfg.timeslice_cycles = 300;
  const std::vector<std::string> names = {"mcf", "idct", "djpeg", "x264"};
  const SimResult base = run_simulation(
      Scheme::parse("2SC3"), cache.workload(names, cfg.machine)->programs,
      cfg);
  ASSERT_EQ(base.threads.size(), 4u);

  struct Mutation {
    std::string path;
    std::function<void(SimResult&)> apply;
  };
  // Bumps one counter, named by its member path.
#define CVMT_BUMP(field) Mutation{#field, [](SimResult& r) { ++r.field; }}
  const auto histogram = [](std::size_t bucket, std::uint64_t total,
                            std::uint64_t weighted_sum) {
    return [=](SimResult& r) {
      const Histogram& h = r.issued_per_cycle;
      std::vector<std::uint64_t> counts;
      for (std::size_t k = 0; k < h.num_buckets(); ++k)
        counts.push_back(h.bucket(k) + (k == bucket ? 1 : 0));
      r.issued_per_cycle =
          Histogram::restored(std::move(counts), h.total() + total,
                              h.weighted_sum() + weighted_sum);
    };
  };
  const std::vector<Mutation> shared = {
      CVMT_BUMP(cycles), CVMT_BUMP(total_ops), CVMT_BUMP(total_instructions),
      CVMT_BUMP(idle_cycles), CVMT_BUMP(threads[1].stats.bubbles),
      CVMT_BUMP(threads[1].stats.taken_branches),
      CVMT_BUMP(threads[1].stats.dcache_stall_cycles),
      CVMT_BUMP(threads[1].stats.icache_stall_cycles),
      CVMT_BUMP(threads[1].stats.branch_stall_cycles),
      CVMT_BUMP(threads[1].stats.bank_conflict_cycles),
      CVMT_BUMP(icache.hits), CVMT_BUMP(icache.total), CVMT_BUMP(dcache.hits),
      CVMT_BUMP(dcache.total), CVMT_BUMP(l2.hits), CVMT_BUMP(l2.total),
      CVMT_BUMP(os.context_switches), CVMT_BUMP(os.timeslices),
      {"threads[1].instructions",
       [](SimResult& r) { ++r.threads[1].stats.instructions; }},
      {"threads[1].ops", [](SimResult& r) { ++r.threads[1].stats.ops; }},
      {"scheme", [](SimResult& r) { r.scheme += "'"; }},
      {"ipc", [](SimResult& r) { r.ipc = std::nextafter(r.ipc, 9.0); }},
      {"threads.size", [](SimResult& r) { r.threads.pop_back(); }},
      {"threads[1].benchmark",
       [](SimResult& r) { r.threads[1].benchmark = "bzip2"; }},
      {"merge_nodes[0].label",
       [](SimResult& r) { r.merge_nodes[0].label += "'"; }},
      {"merge_nodes[0].kind", [](SimResult& r) {
         MergeKind& k = r.merge_nodes[0].kind;
         k = k == MergeKind::kSmt ? MergeKind::kCsmt : MergeKind::kSmt;
       }}};
  const std::vector<Mutation> merge_counters = {
      CVMT_BUMP(merge_nodes[0].attempts), CVMT_BUMP(merge_nodes[0].rejects),
      {"issued_per_cycle.buckets[2]", histogram(2, 0, 0)},
      {"issued_per_cycle.total", histogram(99, 1, 0)},
      {"issued_per_cycle.weighted_sum", histogram(99, 0, 1)}};
#undef CVMT_BUMP
  for (const auto* set : {&shared, &merge_counters}) {
    for (const Mutation& m : *set) {
      SimResult changed = base;
      m.apply(changed);
      const std::string full = compare_sim_results(base, changed, true);
      EXPECT_EQ(full.rfind(m.path + ": ", 0), 0u) << m.path << ": " << full;
      EXPECT_EQ(compare_sim_results(base, changed, false),
                set == &shared ? full : "")
          << m.path;
    }
  }
}

TEST(OracleTest, MalformedCaseFailsWithConstructionError) {
  FuzzCase c = generate_case(1);
  c.scheme = "S(0,0)";  // duplicate thread id
  const OracleReport r = run_oracles(c);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.construction_error.find("duplicate thread id"),
            std::string::npos);
}

TEST(OracleTest, CacheBackedOraclesMatchThePlainPath) {
  // The shrinker's variant shares one ArtifactCache (keyed by profile
  // content) across evaluations; the plain form builds on a fresh cache
  // of its own and leaves the process-wide one alone. Same verdicts, same
  // simulation count — and repeated evaluations reuse cached programs.
  ArtifactCache artifacts;
  const std::size_t global = ArtifactCache::global().size();
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const FuzzCase c = generate_case(seed);
    const OracleReport plain = run_oracles(c);
    EXPECT_EQ(ArtifactCache::global().size(), global);
    const OracleReport cached = run_oracles(c, artifacts);
    EXPECT_EQ(plain.ok, cached.ok) << c.summary();
    EXPECT_EQ(plain.simulations, cached.simulations);
    EXPECT_EQ(plain.to_string(), cached.to_string());
  }
  const std::size_t warm = artifacts.size();
  EXPECT_GT(warm, 0u);
  (void)run_oracles(generate_case(11), artifacts);  // all hits
  EXPECT_EQ(artifacts.size(), warm);
}

// A clean case costs exactly five simulations: the baseline plus the
// tree, stepped, fast-stats and replay oracles.
TEST(OracleTest, CleanCaseRunsFiveSimulations) {
  FuzzOptions options;
  options.cases = 12;
  options.seed = 1;
  options.workers = 1;
  const FuzzSweepResult sweep = run_fuzz_sweep(options);
  ASSERT_EQ(sweep.failures, 0u);
  for (const FuzzOutcome& o : sweep.outcomes)
    EXPECT_EQ(o.report.simulations, 5) << o.c.label;
  std::ostringstream csv;
  sweep.summary().write_csv(csv);
  EXPECT_NE(csv.str().find("simulations run,60"), std::string::npos)
      << csv.str();
}

// ----------------------------------------------------- corpus + sweeps

TEST(FuzzSweepTest, CheckedInCorpusReplaysClean) {
  const std::vector<FuzzCase> corpus = load_corpus_dir(corpus_dir());
  ASSERT_GE(corpus.size(), 5u) << "corpus missing at " << corpus_dir();
  for (const FuzzCase& c : corpus) {
    const OracleReport r = run_oracles(c);
    EXPECT_TRUE(r.ok) << c.label << ": " << r.to_string();
  }
}

/// `cvmt fuzz` with `args`: its exit code and what it printed on stderr.
std::pair<int, std::string> fuzz_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "fuzz");
  std::vector<const char*> argv;
  for (const std::string& a : args) argv.push_back(a.c_str());
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int code = fuzz_main(static_cast<int>(argv.size()), argv.data());
  (void)testing::internal::GetCapturedStdout();
  return {code, testing::internal::GetCapturedStderr()};
}

// A corpus file that does not load stops the sweep with a usage error
// that names the file, so the one to fix among many is plain.
TEST(FuzzSweepTest, ACorpusFileThatDoesNotLoadIsNamed) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cvmt_fuzz_bad_corpus";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  save_case((dir / "a.json").string(), generate_case(1));
  std::ofstream(dir / "c.json") << "not json\n";
  const auto [code, err] =
      fuzz_cli({"--cases=0", "--corpus=" + dir.string()});
  EXPECT_EQ(code, 2);
  EXPECT_NE(err.find((dir / "c.json").string() +
                     ": JSON parse error at offset 0: bad literal"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find(".cpp:"), std::string::npos) << err;
  std::filesystem::remove_all(dir);
}

// A --save path that is, or runs through, a regular file is a usage error
// naming the path and the OS reason, found before the sweep runs; the
// file is left as it was.
TEST(FuzzSweepTest, ASavePathThroughARegularFileIsAUsageError) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cvmt_fuzz_save_file";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string file = (dir / "afile").string();
  std::ofstream(file) << "not a directory\n";
  for (const std::string& save : {file, file + "/sub"}) {
    const auto [code, err] =
        fuzz_cli({"--cases=1", "--save=" + save, "--save-all"});
    EXPECT_EQ(code, 2) << save;
    EXPECT_NE(err.find("cannot create the save directory " + save + ": "),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("CVMT_CHECK"), std::string::npos) << err;
  }
  std::ifstream in(file);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "not a directory");
  std::filesystem::remove_all(dir);
}

TEST(FuzzSweepTest, Deterministic200CaseSweepPasses) {
  FuzzOptions options;
  options.cases = 200;
  options.seed = 1;
  options.workers = 1;
  const FuzzSweepResult sweep = run_fuzz_sweep(options);
  EXPECT_EQ(sweep.outcomes.size(), 200u);
  EXPECT_EQ(sweep.failures, 0u);
  for (const FuzzOutcome& o : sweep.outcomes)
    EXPECT_TRUE(o.report.ok) << o.c.label << ": " << o.report.to_string();
}

TEST(FuzzSweepTest, SweepIsWorkerCountInvariant) {
  FuzzOptions serial;
  serial.cases = 60;
  serial.seed = 2;
  serial.workers = 1;
  FuzzOptions parallel = serial;
  parallel.workers = 4;
  const FuzzSweepResult a = run_fuzz_sweep(serial);
  const FuzzSweepResult b = run_fuzz_sweep(parallel);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_EQ(a.failures, b.failures);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].c.label, b.outcomes[i].c.label);
    EXPECT_EQ(a.outcomes[i].c.to_json().dump(),
              b.outcomes[i].c.to_json().dump());
    EXPECT_EQ(a.outcomes[i].report.ok, b.outcomes[i].report.ok);
  }
  std::ostringstream sa, sb;
  a.summary().write_csv(sa);
  b.summary().write_csv(sb);
  EXPECT_EQ(sa.str(), sb.str());
}

// ------------------------------------------------------------ shrinker

TEST(ShrinkTest, PassingCaseIsReturnedUnchanged) {
  const FuzzCase c = generate_case(3);
  const ShrinkResult r =
      shrink_case(c, [](const FuzzCase&) { return false; });
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.accepted, 0);
  EXPECT_EQ(r.minimized.to_json().dump(), c.to_json().dump());
}

TEST(ShrinkTest, GreedyShrinkReachesAMinimalCase) {
  // Synthetic failure: any scheme with >= 3 threads containing an SMT
  // block, with a budget of at least 200. The minimum satisfying case has
  // exactly 3 threads, one SMT block and a budget the halving loop cannot
  // cut below 200.
  const auto fails = [](const FuzzCase& c) {
    const Scheme s = c.parse_scheme();
    return s.num_threads() >= 3 && s.count_blocks(MergeKind::kSmt) > 0 &&
           c.sim.instruction_budget >= 200;
  };
  FuzzCase big = generate_case(4);
  big.scheme = "S(C(0,1),S(2,3),CP(4,5))";
  big.sim.instruction_budget = 1600;
  ASSERT_TRUE(fails(big));

  const ShrinkResult r = shrink_case(big, fails);
  EXPECT_TRUE(fails(r.minimized));
  const Scheme min_scheme = r.minimized.parse_scheme();
  EXPECT_EQ(min_scheme.num_threads(), 3);
  EXPECT_GT(min_scheme.count_blocks(MergeKind::kSmt), 0);
  EXPECT_LT(r.minimized.sim.instruction_budget, 400u);
  EXPECT_GE(r.minimized.sim.instruction_budget, 200u);
  EXPECT_GT(r.accepted, 0);
  EXPECT_NE(r.minimized.label.find("+shrunk"), std::string::npos);
}

TEST(ShrinkTest, SchemePruningRenumbersPortsDensely) {
  // A predicate that only looks at the thread count forces the shrinker
  // through subtree pruning; every intermediate scheme must stay valid,
  // which requires dense renumbering after dropping leaves.
  const auto fails = [](const FuzzCase& c) {
    return c.parse_scheme().num_threads() >= 2;
  };
  FuzzCase big = generate_case(5);
  big.scheme = "C(S(4,1),CP(0,3),I(2,5))";
  const ShrinkResult r = shrink_case(big, fails);
  const Scheme s = r.minimized.parse_scheme();
  EXPECT_EQ(s.num_threads(), 2);
  EXPECT_EQ(Scheme::validate(s.root()), "");
}

}  // namespace
}  // namespace cvmt
