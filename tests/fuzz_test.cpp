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

#include "sim/session.hpp"
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

TEST(CaseGenTest, JsonAndFileRoundTrip) {
  const FuzzCase a = generate_case(99);
  const FuzzCase b = FuzzCase::from_json(a.to_json());
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());

  const std::string path =
      (std::filesystem::temp_directory_path() / "cvmt_fuzz_rt.json")
          .string();
  save_case(path, a);
  const FuzzCase c = load_case(path);
  EXPECT_EQ(a.to_json().dump(), c.to_json().dump());
  std::remove(path.c_str());
}

TEST(CaseGenTest, ClusterCountBeyondTheMachineCapIsRejectedOnLoad) {
  // Nine clusters and nine rows: per_cluster holds kMaxClusters (8)
  // shapes, so the count must be refused before any row is written, and
  // `cvmt fuzz --case=` exits 2 as for any other malformed file.
  JsonValue v = generate_case(1).to_json();
  JsonValue sim = v.get("sim");
  JsonValue machine = sim.get("machine");
  machine.set("num_clusters", kMaxClusters + 1);
  JsonValue rows = JsonValue::array();
  for (int c = 0; c <= kMaxClusters; ++c) {
    JsonValue row = JsonValue::object();
    row.set("issue", 1);
    row.set("mul", 1);
    row.set("mem", 1);
    row.set("branch", 1);
    rows.push_back(std::move(row));
  }
  machine.set("clusters", std::move(rows));
  sim.set("machine", std::move(machine));
  v.set("sim", std::move(sim));
  try {
    (void)FuzzCase::from_json(v);
    ADD_FAILURE() << "a nine-cluster case loaded";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("num_clusters 9"),
              std::string::npos)
        << e.what();
  }

  const std::string path =
      (std::filesystem::temp_directory_path() / "cvmt_fuzz_nine.json")
          .string();
  std::ofstream(path) << v.dump();
  const std::string flag = "--case=" + path;
  const char* argv[] = {"fuzz", flag.c_str()};
  EXPECT_EQ(fuzz_main(2, argv), 2);
  std::remove(path.c_str());
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
  JsonValue base = generate_case(1).to_json();
  base = with_int(base, std::vector<std::string>{"sim", "mem",
                                                 "bank_conflict_penalty"},
                  1);
  base = with_int(base,
                  std::vector<std::string>{"sim", "mem", "dcache_banks"}, 2);
  ASSERT_NO_THROW((void)FuzzCase::from_json(base));
  constexpr std::int64_t k2to32 = std::int64_t{1} << 32;
  const struct {
    std::vector<std::string> path;
    std::int64_t value;
    const char* name;
  } cases[] = {
      {{"sim", "machine", "issue_per_cluster"}, 4 + k2to32,
       "sim.machine.issue_per_cluster 4294967300"},
      {{"sim", "machine", "mul_latency"}, 2 + k2to32,
       "sim.machine.mul_latency 4294967298"},
      {{"sim", "machine", "mul_slot_mask"}, 3 + k2to32,
       "sim.machine.mul_slot_mask 4294967299"},
      {{"profiles", "0", "num_loops"}, 2 + k2to32,
       "profiles[0].num_loops 4294967298"},
      {{"profiles", "0", "hot_bytes"}, -4096, "profiles[0].hot_bytes -4096"},
      {{"sim", "mem", "dcache", "line_bytes"}, 64 + k2to32,
       "sim.mem.dcache.line_bytes 4294967360"},
      {{"sim", "mem", "icache", "ways"}, -4, "sim.mem.icache.ways -4"},
      {{"sim", "mem", "dcache", "miss_penalty"}, 20 + k2to32,
       "sim.mem.dcache.miss_penalty 4294967316"},
      {{"sim", "mem", "dcache_banks"}, 2 + k2to32,
       "sim.mem.dcache_banks 4294967298"},
      {{"sim", "instruction_budget"}, -1, "sim.instruction_budget -1"},
  };
  for (const auto& c : cases) {
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
  const std::string path =
      (std::filesystem::temp_directory_path() / "cvmt_fuzz_wrap.json")
          .string();
  std::ofstream(path) << with_int(base, cases[0].path, cases[0].value)
                             .dump();
  const std::string flag = "--case=" + path;
  const char* argv[] = {"fuzz", flag.c_str()};
  EXPECT_EQ(fuzz_main(2, argv), 2);
  std::remove(path.c_str());
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
