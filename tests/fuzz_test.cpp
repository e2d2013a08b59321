// The property-based differential fuzzing subsystem (src/testgen):
// generator well-formedness and determinism, corpus replay of the
// checked-in repro files, the fixed 200-case tier-1 sweep (deterministic
// and worker-count invariant), FuzzCase serialization round trips, and
// greedy-shrinker minimization under synthetic failure predicates.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>

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
    EXPECT_LE(m.num_clusters * m.issue_per_cluster, kMaxTotalOps);
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
    if (c.sim.machine.heterogeneous) {
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

TEST(OracleTest, MalformedCaseFailsWithConstructionError) {
  FuzzCase c = generate_case(1);
  c.scheme = "S(0,0)";  // duplicate thread id
  const OracleReport r = run_oracles(c);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.construction_error.find("duplicate thread id"),
            std::string::npos);
}

TEST(OracleTest, CacheBackedOraclesMatchThePlainPath) {
  // The shrinker's variant: programs come from an ArtifactCache (keyed
  // by profile content) instead of being rebuilt per evaluation. Same
  // verdicts, same simulation count — and repeated evaluations of one
  // case reuse the cached programs.
  ArtifactCache artifacts;
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const FuzzCase c = generate_case(seed);
    const OracleReport plain = run_oracles(c);
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
