// The session layer: compiled artifacts (merge plans and workloads), the
// shared ArtifactCache and the per-worker SimSession. The load-bearing
// property throughout is strict bit-identity between a session run,
// whatever ran on the session before it, and run_simulation
// (compare_sim_results checks every SimResult field).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "isa/machine_file.hpp"
#include "sim/session.hpp"
#include "support/check.hpp"
#include "testgen/oracle.hpp"

namespace cvmt {
namespace {

const MachineConfig kM = MachineConfig::vex4x4();

SimConfig tiny_config() {
  SimConfig cfg;
  cfg.instruction_budget = 2'000;
  cfg.timeslice_cycles = 500;
  return cfg;
}

std::vector<std::string> lmhh_names() {
  return {"mcf", "g721encode", "imgpipe", "colorspace"};
}

// --- the compiled scheme: MergePlan and scheme_key -----------------------

TEST(CompiledScheme, CarriesSchemePlanAndKey) {
  const MergePlan plan(Scheme::parse("2SC3"), kM);
  EXPECT_EQ(plan.scheme().name(), "2SC3");
  EXPECT_EQ(plan.machine(), kM);
  EXPECT_EQ(plan.num_threads(), 4);
  // The whole key, as existing stores hold it: a uniform machine's flat
  // shape, and after "het:" every cluster of a machine that is not.
  EXPECT_EQ(scheme_key(plan.scheme(), plan.machine()),
            "S|2SC3|CP(S(0,1),2,3)@4,4,3,4,8,1,2,2,2,");
  MachineDescription het;
  ASSERT_TRUE(find_builtin_machine("het4422", het));
  EXPECT_EQ(scheme_key(plan.scheme(), het.machine),
            "S|2SC3|CP(S(0,1),2,3)@4,4,3,4,8,1,2,2,2,"
            "het:4,3,4,8,4,3,4,8,2,1,2,2,2,0,2,2,");
}

TEST(CompiledScheme, KeySeparatesSchemesNamesAndMachines) {
  const Scheme sc3 = Scheme::parse("2SC3");
  EXPECT_EQ(scheme_key(sc3, kM), scheme_key(Scheme::parse("2SC3"), kM));
  EXPECT_NE(scheme_key(sc3, kM), scheme_key(Scheme::parse("3CCC"), kM));
  EXPECT_NE(scheme_key(sc3, kM), scheme_key(sc3, MachineConfig::vex4x2()));
  // Same tree under a different display name is a different artifact
  // (SimResult::scheme carries the name).
  const Scheme functional = Scheme::parse("CP(S(0,1),2,3)");
  EXPECT_EQ(functional.canonical(), sc3.canonical());
  EXPECT_NE(scheme_key(functional, kM), scheme_key(sc3, kM));
}

TEST(CompiledScheme, RejectsInvalidMachine) {
  MachineConfig bad = kM;
  bad.num_clusters = 0;
  EXPECT_THROW((void)MergePlan(Scheme::parse("1S"), bad), CheckError);
}

// --- ArtifactCache --------------------------------------------------------

TEST(ArtifactCache, SharesOneArtifactPerKey) {
  ArtifactCache cache;
  const auto a = cache.scheme(Scheme::parse("2SC3"), kM);
  const auto b = cache.scheme(Scheme::parse("2SC3"), kM);
  EXPECT_EQ(a.get(), b.get());  // same object, not just equal
  EXPECT_NE(a.get(), cache.scheme(Scheme::parse("3CCC"), kM).get());

  const auto p = cache.program("mcf", kM);
  EXPECT_EQ(p.get(), cache.program("mcf", kM).get());
  EXPECT_EQ(p.get(), cache.program(profile_by_name("mcf"), kM).get());
  EXPECT_NE(p.get(), cache.program("mcf", MachineConfig::vex4x2()).get());

  const std::vector<std::string> names = lmhh_names();
  const auto w = cache.workload(names, kM);
  EXPECT_EQ(w.get(), cache.workload(names, kM).get());
  ASSERT_EQ(w->programs.size(), 4u);
  // Workload members share the per-program cache entries.
  EXPECT_EQ(w->programs[0].get(), cache.program("mcf", kM).get());
}

TEST(ArtifactCache, ProfileContentIsTheKeyNotTheName) {
  ArtifactCache cache;
  BenchmarkProfile p = profile_by_name("mcf");
  const auto original = cache.program(p, kM);
  p.mem_op_frac = 0.39;  // fuzz-style mutation under the same name
  const auto mutated = cache.program(p, kM);
  EXPECT_NE(original.get(), mutated.get());
}

TEST(ArtifactCache, ClearDropsEntriesButSharedPtrsSurvive) {
  ArtifactCache cache;
  const auto p = cache.program("idct", kM);
  EXPECT_GT(cache.size(), 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(p->profile().name, "idct");  // still alive
  EXPECT_NE(p.get(), cache.program("idct", kM).get());  // rebuilt
}

TEST(ArtifactCache, ConcurrentMixedRequestsShareBuilds) {
  ArtifactCache cache;
  constexpr int kThreads = 8;
  std::vector<std::future<const SyntheticProgram*>> futs;
  for (int t = 0; t < kThreads; ++t)
    futs.push_back(std::async(std::launch::async, [&cache, t] {
      // Every thread requests the same artifacts plus one scheme of its
      // own; all requests race on a cold cache.
      (void)cache.scheme(Scheme::parse("2SC3"), kM);
      (void)cache.scheme(Scheme::parse(t % 2 ? "3CCC" : "3SSS"), kM);
      (void)cache.workload(std::vector<std::string>{"mcf", "idct"}, kM);
      return cache.program("x264", kM).get();
    }));
  const SyntheticProgram* first = futs[0].get();
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(futs[t].get(), first);  // one build, shared by all
}

// --- SimInstance ----------------------------------------------------------
// The suite is named after the reusable instance these tests once pinned.
// Runs share no state, so each pins that one session across interleaved
// configs, memory geometries and workload sizes equals run_simulation.

TEST(SimInstance, MatchesRunSimulationExactly) {
  ArtifactCache cache;
  SimSession session(cache);
  const SimConfig cfg = tiny_config();
  const auto workload = cache.workload(lmhh_names(), kM);
  const Scheme scheme = Scheme::parse("2SC3");
  const SimResult fresh = run_simulation(scheme, workload->programs, cfg);
  EXPECT_EQ(compare_sim_results(
                fresh, session.run(scheme, workload->programs, cfg), true),
            "");
  EXPECT_EQ(compare_sim_results(
                fresh,
                run_simulation(cache.scheme(scheme, kM), workload->programs,
                               cfg),
                true),
            "");
}

TEST(SimInstance, RepeatedRunsAreBitIdentical) {
  SimSession session;
  const SimConfig cfg = tiny_config();
  const Scheme scheme = Scheme::parse("3SSS");
  const SimResult a = session.run(scheme, lmhh_names(), cfg);
  for (int rerun = 0; rerun < 2; ++rerun)
    EXPECT_EQ(compare_sim_results(a, session.run(scheme, lmhh_names(), cfg),
                                  true),
              "")
        << "rerun " << rerun;
}

TEST(SimInstance, RunsInterleavedConfigsWithoutCrossTalk) {
  // Mixed budgets/policies/stats on one session: each run must match its
  // own run_simulation result, regardless of what ran before it.
  ArtifactCache cache;
  SimSession session(cache);
  const auto workload = cache.workload(lmhh_names(), kM);
  SimConfig a = tiny_config();
  SimConfig b = tiny_config();
  b.instruction_budget = 900;
  b.priority = PriorityPolicy::kStickyOnStall;
  b.stats = StatsLevel::kFast;
  b.os_seed = 0xBEEF;
  SimConfig c = tiny_config();
  c.mem.perfect = true;
  c.eval_mode = EvalMode::kTreeReference;
  c.stall_fast_forward = false;

  const Scheme scheme = Scheme::parse("2CS");
  for (const SimConfig* cfg : {&a, &b, &c, &a, &c, &b}) {
    const SimResult fresh = run_simulation(scheme, workload->programs, *cfg);
    EXPECT_EQ(compare_sim_results(
                  fresh, session.run(scheme, workload->programs, *cfg), true),
              "");
  }
}

TEST(SimInstance, MemoryGeometryChangeRebuildsCaches) {
  ArtifactCache cache;
  SimSession session(cache);
  const auto workload = cache.workload(lmhh_names(), kM);
  SimConfig small = tiny_config();
  small.mem.icache.size_bytes = 8 * 1024;
  small.mem.dcache.size_bytes = 8 * 1024;
  SimConfig priv = tiny_config();
  priv.mem.sharing = CacheSharing::kPrivate;
  SimConfig plain = tiny_config();

  const Scheme scheme = Scheme::parse("3CCC");
  for (const SimConfig* cfg : {&plain, &small, &priv, &small, &plain}) {
    const SimResult fresh = run_simulation(scheme, workload->programs, *cfg);
    EXPECT_EQ(compare_sim_results(
                  fresh, session.run(scheme, workload->programs, *cfg), true),
              "");
  }
}

TEST(SimInstance, WorkloadSizeMayShrinkAndGrowAcrossRuns) {
  ArtifactCache cache;
  SimSession session(cache);
  const SimConfig cfg = tiny_config();
  const std::vector<std::string> two = {"mcf", "idct"};
  const std::vector<std::string> six = {"mcf",  "idct",  "djpeg",
                                        "x264", "bzip2", "cjpeg"};
  const Scheme scheme = Scheme::parse("1S");
  for (const auto* names : {&two, &six, &two}) {
    const SimResult fresh = run_simulation(
        scheme, cache.workload(*names, kM)->programs, cfg);
    EXPECT_EQ(compare_sim_results(fresh, session.run(scheme, *names, cfg),
                                  true),
              "");
  }
}

TEST(SimInstance, RejectsMismatchedMachineAndEmptyWorkload) {
  ArtifactCache cache;
  const auto plan = cache.scheme(Scheme::parse("1S"), kM);
  const auto workload = cache.workload(lmhh_names(), kM);
  SimConfig other = tiny_config();
  other.machine = MachineConfig::vex4x2();
  EXPECT_THROW((void)run_simulation(plan, workload->programs, other),
               CheckError);
  EXPECT_THROW((void)run_simulation(plan, CompiledWorkload{}.programs,
                                    tiny_config()),
               CheckError);
  // Programs built for a different machine are rejected per run.
  const auto foreign =
      cache.workload(lmhh_names(), MachineConfig::vex4x2());
  EXPECT_THROW((void)run_simulation(plan, foreign->programs, tiny_config()),
               CheckError);
}

// --- SimSession -----------------------------------------------------------

TEST(SimSession, GridSweepMatchesFacadePointForPoint) {
  ArtifactCache cache;
  SimSession session(cache);
  const SimConfig cfg = tiny_config();
  const std::vector<std::string> names = lmhh_names();
  for (int pass = 0; pass < 2; ++pass) {  // second pass = artifacts cached
    for (const char* scheme : {"1S", "3CCC", "2SC3", "3SSS", "IMT4"}) {
      const SimResult via_session =
          session.run(Scheme::parse(scheme), names, cfg);
      const SimResult fresh = run_simulation(
          Scheme::parse(scheme), cache.workload(names, kM)->programs, cfg);
      EXPECT_EQ(compare_sim_results(fresh, via_session, true), "")
          << scheme << " pass " << pass;
    }
  }
  EXPECT_EQ(cache.stats().scheme_misses, 5u);  // each compiled once
}

TEST(SimSession, SharedArtifactsAcrossSessions) {
  ArtifactCache cache;
  SimSession worker_a(cache);
  SimSession worker_b(cache);
  const SimConfig cfg = tiny_config();
  const SimResult a =
      worker_a.run(Scheme::parse("2SC"), lmhh_names(), cfg);
  const SimResult b =
      worker_b.run(Scheme::parse("2SC"), lmhh_names(), cfg);
  EXPECT_EQ(compare_sim_results(a, b, true), "");
  // Both sessions drew one merge plan and one workload from the shared
  // cache.
  const ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.scheme_misses, 1u);
  EXPECT_EQ(s.scheme_hits, 1u);
  EXPECT_EQ(s.workload_misses, 1u);
  EXPECT_EQ(s.workload_hits, 1u);
}

TEST(SimSession, ClearDropsInstancesButKeepsCorrectness) {
  // Named after the instance cache this test once cleared. A session
  // keeps no run state, so a run that follows runs of other
  // schemes, configs, memory geometries and workload sizes on the same
  // session equals the first run and run_simulation.
  SimSession session;  // the process-global artifact cache
  const SimConfig cfg = tiny_config();
  const Scheme scheme = Scheme::parse("2SS");
  const SimResult a = session.run(scheme, lmhh_names(), cfg);
  SimConfig other = tiny_config();
  other.mem.sharing = CacheSharing::kPrivate;
  other.switch_policy = SwitchPolicyKind::kPoststall;
  (void)session.run(Scheme::parse("3SSS"), lmhh_names(), other);
  (void)session.run(scheme, std::vector<std::string>{"mcf", "idct"}, other);
  const SimResult b = session.run(scheme, lmhh_names(), cfg);
  EXPECT_EQ(compare_sim_results(a, b, true), "");
  EXPECT_EQ(compare_sim_results(
                run_simulation(scheme,
                               session.artifacts()
                                   .workload(lmhh_names(), kM)
                                   ->programs,
                               cfg),
                b, true),
            "");
}

// --- per-key build locks --------------------------------------------------

TEST(ArtifactCache, CountsHitsAndMisses) {
  ArtifactCache cache;
  (void)cache.scheme(Scheme::parse("2SC3"), kM);
  (void)cache.scheme(Scheme::parse("2SC3"), kM);
  (void)cache.scheme(Scheme::parse("3SCC"), kM);
  (void)cache.program("mcf", kM);
  (void)cache.program("mcf", kM);
  const ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.scheme_misses, 2u);
  EXPECT_EQ(s.scheme_hits, 1u);
  EXPECT_EQ(s.program_misses, 1u);
  EXPECT_EQ(s.program_hits, 1u);
  EXPECT_EQ(s.hits(), 2u);
  EXPECT_EQ(s.misses(), 3u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 2.0 / 5.0);
  // clear() drops artifacts, not the lifetime counters.
  cache.clear();
  EXPECT_EQ(cache.stats().misses(), 3u);
}

// The satellite property of this PR: two cold misses on *distinct* keys
// build concurrently instead of serializing on a cache-wide lock. The
// build hook holds each builder until both have entered their build —
// possible only when the builds overlap; a cache-wide build lock would
// deadlock here (and the watchdog would flag it).
TEST(ArtifactCache, DistinctColdKeysBuildConcurrently) {
  ArtifactCache cache;
  std::mutex mu;
  std::condition_variable cv;
  int builders_in_flight = 0;
  cache.set_build_hook([&](std::string_view) {
    std::unique_lock<std::mutex> lock(mu);
    ++builders_in_flight;
    cv.notify_all();
    // Wait (bounded) for the *other* builder to arrive as well.
    cv.wait_for(lock, std::chrono::seconds(10),
                [&] { return builders_in_flight >= 2; });
  });

  auto build_a = std::async(std::launch::async, [&] {
    return cache.scheme(Scheme::parse("2SC3"), kM);
  });
  auto build_b = std::async(std::launch::async, [&] {
    return cache.program("mcf", kM);
  });
  {
    // Observe genuine overlap: both builders inside their build hook at
    // the same moment.
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return builders_in_flight >= 2; }));
  }
  EXPECT_NE(build_a.get(), nullptr);
  EXPECT_NE(build_b.get(), nullptr);
  cache.set_build_hook(nullptr);
  EXPECT_EQ(cache.stats().misses(), 2u);
}

// Concurrent misses on the SAME key run exactly one build; the latecomer
// blocks on the first build's future and shares its artifact.
TEST(ArtifactCache, SameColdKeyBuildsOnce) {
  ArtifactCache cache;
  std::atomic<int> builds{0};
  cache.set_build_hook([&](std::string_view) {
    ++builds;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  auto a = std::async(std::launch::async, [&] {
    return cache.scheme(Scheme::parse("2SC3"), kM);
  });
  auto b = std::async(std::launch::async, [&] {
    return cache.scheme(Scheme::parse("2SC3"), kM);
  });
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(builds.load(), 1);
  const ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.scheme_misses + s.scheme_hits, 2u);
  EXPECT_EQ(s.scheme_misses, 1u);
}

// A build that throws must propagate to every waiter and evict the
// entry so the next request retries (a cached failure would wedge the
// key forever).
TEST(ArtifactCache, FailedBuildEvictsAndRetries) {
  ArtifactCache cache;
  bool fail_next = true;
  cache.set_build_hook([&](std::string_view) {
    if (fail_next) {
      fail_next = false;
      throw CheckError("injected build failure");
    }
  });
  EXPECT_THROW((void)cache.scheme(Scheme::parse("2SC3"), kM), CheckError);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_NE(cache.scheme(Scheme::parse("2SC3"), kM), nullptr);
  cache.set_build_hook(nullptr);
}

}  // namespace
}  // namespace cvmt
