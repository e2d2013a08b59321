// Determinism tests for the batch experiment runner: identical runs are
// bit-identical, fanning a job grid across any number of workers
// reproduces the serial reference exactly, cell for cell, and jobs that
// take a decision-equivalent twin's result match their own direct run.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exp/batch_runner.hpp"
#include "exp/registry.hpp"
#include "sim/session.hpp"
#include "store/sweep_store.hpp"
#include "support/check.hpp"

namespace cvmt {
namespace {

SimConfig tiny_sim() {
  SimConfig sim;
  sim.instruction_budget = 10'000;
  sim.timeslice_cycles = 2'500;
  return sim;
}

/// Asserts every field of two SimResults matches exactly (bit-identical
/// counters and doubles, not approximately equal).
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.idle_cycles, b.idle_cycles);
  EXPECT_EQ(a.ipc, b.ipc);  // exact double equality, on purpose
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (std::size_t i = 0; i < a.threads.size(); ++i) {
    const ThreadResult& ta = a.threads[i];
    const ThreadResult& tb = b.threads[i];
    EXPECT_EQ(ta.benchmark, tb.benchmark);
    EXPECT_EQ(ta.instructions, tb.instructions);
    EXPECT_EQ(ta.ops, tb.ops);
    EXPECT_EQ(ta.stats.bubbles, tb.stats.bubbles);
    EXPECT_EQ(ta.stats.taken_branches, tb.stats.taken_branches);
    EXPECT_EQ(ta.stats.dcache_stall_cycles, tb.stats.dcache_stall_cycles);
    EXPECT_EQ(ta.stats.icache_stall_cycles, tb.stats.icache_stall_cycles);
    EXPECT_EQ(ta.stats.branch_stall_cycles, tb.stats.branch_stall_cycles);
  }
  EXPECT_EQ(a.icache.hits, b.icache.hits);
  EXPECT_EQ(a.icache.total, b.icache.total);
  EXPECT_EQ(a.dcache.hits, b.dcache.hits);
  EXPECT_EQ(a.dcache.total, b.dcache.total);
  ASSERT_EQ(a.issued_per_cycle.num_buckets(), b.issued_per_cycle.num_buckets());
  for (std::size_t i = 0; i < a.issued_per_cycle.num_buckets(); ++i)
    EXPECT_EQ(a.issued_per_cycle.bucket(i), b.issued_per_cycle.bucket(i));
  ASSERT_EQ(a.merge_nodes.size(), b.merge_nodes.size());
  for (std::size_t i = 0; i < a.merge_nodes.size(); ++i) {
    EXPECT_EQ(a.merge_nodes[i].label, b.merge_nodes[i].label);
    EXPECT_EQ(a.merge_nodes[i].attempts, b.merge_nodes[i].attempts);
    EXPECT_EQ(a.merge_nodes[i].rejects, b.merge_nodes[i].rejects);
  }
  EXPECT_EQ(a.os.context_switches, b.os.context_switches);
  EXPECT_EQ(a.os.timeslices, b.os.timeslices);
}

/// Runs `benchmarks` under `scheme` with programs built through `cache`.
SimResult run_direct(const Scheme& scheme,
                     std::span<const std::string> benchmarks,
                     ArtifactCache& cache, const SimConfig& sim) {
  const auto workload = cache.workload(benchmarks, sim.machine);
  return run_simulation(scheme, workload->programs, sim);
}

TEST(Determinism, RunWorkloadTwiceIsBitIdentical) {
  const SimConfig sim = tiny_sim();
  const Scheme scheme = Scheme::parse("2SC3");
  const Workload& wl = table2_workloads().front();

  ArtifactCache cache_a;
  const SimResult a = run_direct(scheme, wl.benchmarks, cache_a, sim);
  ArtifactCache cache_b;
  const SimResult b = run_direct(scheme, wl.benchmarks, cache_b, sim);
  expect_identical(a, b);
}

TEST(Determinism, SharedAndFreshLibraryAgree) {
  const SimConfig sim = tiny_sim();
  const Scheme scheme = Scheme::parse("3CCC");
  const Workload& wl = table2_workloads().back();

  ArtifactCache shared;
  const SimResult first = run_direct(scheme, wl.benchmarks, shared, sim);
  const SimResult again = run_direct(scheme, wl.benchmarks, shared, sim);
  expect_identical(first, again);
}

std::vector<BatchJob> small_grid() {
  const SimConfig sim = tiny_sim();
  std::vector<BatchJob> jobs;
  for (const char* name : {"1S", "3CCC", "3SSS"})
    for (const Workload& w : table2_workloads())
      jobs.push_back(make_job(Scheme::parse(name), w, sim));
  return jobs;
}

TEST(BatchRunner, GridIdenticalAcrossWorkerCounts) {
  const std::vector<BatchJob> jobs = small_grid();
  const std::vector<SimResult> serial = run_batch(jobs, {.workers = 1});
  for (unsigned workers : {2u, 5u, 16u}) {
    const std::vector<SimResult> parallel =
        run_batch(jobs, {.workers = workers});
    ASSERT_EQ(parallel.size(), serial.size()) << workers << " workers";
    for (std::size_t i = 0; i < serial.size(); ++i)
      expect_identical(serial[i], parallel[i]);
  }
}

TEST(BatchRunner, MatchesDirectRunWorkload) {
  const std::vector<BatchJob> jobs = small_grid();
  const std::vector<SimResult> batch = run_batch(jobs, {.workers = 4});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ArtifactCache cache;
    expect_identical(batch[i], run_direct(jobs[i].scheme, jobs[i].benchmarks,
                                          cache, jobs[i].sim));
  }
}

TEST(BatchRunner, MixedMachineConfigsInOneBatch) {
  const SimConfig small = tiny_sim();
  SimConfig wide = tiny_sim();
  wide.machine = MachineConfig::clustered(2, 8);
  const Workload& wl = table2_workloads().front();
  const std::vector<BatchJob> jobs = {
      make_job(Scheme::parse("3CCC"), wl, small),
      make_job(Scheme::parse("3CCC"), wl, wide),
      make_job(Scheme::parse("3SSS"), wl, small),
  };
  const std::vector<SimResult> serial = run_batch(jobs, {.workers = 1});
  const std::vector<SimResult> parallel = run_batch(jobs, {.workers = 3});
  for (std::size_t i = 0; i < jobs.size(); ++i)
    expect_identical(serial[i], parallel[i]);
  // The two machines genuinely differ.
  EXPECT_NE(serial[0].cycles, serial[1].cycles);
}

TEST(BatchRunner, GroupAveragesUnflattensSweepLayout) {
  const std::vector<double> values = {1.0, 3.0, 2.0, 4.0, 10.0, 20.0};
  const std::vector<double> avg = group_averages(values, 2);
  ASSERT_EQ(avg.size(), 3u);
  EXPECT_EQ(avg[0], 2.0);
  EXPECT_EQ(avg[1], 3.0);
  EXPECT_EQ(avg[2], 15.0);
  EXPECT_EQ(group_averages(values, 6).size(), 1u);
  EXPECT_THROW(group_averages(values, 4), CheckError);  // partial group
  EXPECT_THROW(group_averages(values, 0), CheckError);
}

TEST(BatchRunner, EmptyBatchReturnsEmpty) {
  EXPECT_TRUE(run_batch({}, {.workers = 4}).empty());
}

// ------------------------------------------ decision-equivalent grouping

/// Figure 10's 144 jobs (workload-major, as the fig10 runner lays them
/// out).
std::vector<BatchJob> fig10_grid(StatsLevel stats) {
  SimConfig sim;
  sim.instruction_budget = 2'000;
  sim.timeslice_cycles = 500;
  sim.stats = stats;
  std::vector<BatchJob> jobs;
  for (const Workload& w : table2_workloads())
    for (const Scheme& s : Scheme::paper_schemes_4t())
      jobs.push_back(make_job(s, w, sim));
  return jobs;
}

std::string result_bytes(const SimResult& r) {
  return sim_result_to_json(r).dump(-1);
}

std::vector<std::string> direct_runs(const std::vector<BatchJob>& jobs) {
  SimSession session;
  std::vector<std::string> bytes;
  for (const BatchJob& job : jobs)
    bytes.push_back(result_bytes(session.run(
        job.scheme, std::span<const std::string>(job.benchmarks), job.sim)));
  return bytes;
}

/// Simulations run so far in this process: every SimSession::run looks
/// its workload up in the process-wide artifact cache exactly once.
std::uint64_t simulations_run() {
  const ArtifactCacheStats s = ArtifactCache::global().stats();
  return s.workload_hits + s.workload_misses;
}

std::unique_ptr<SweepStore> fresh_store(const std::string& name,
                                        ShardSpec shard) {
  const std::string dir = testing::TempDir() + "cvmt_batch_" + name;
  if (shard.index == 0) std::filesystem::remove_all(dir);
  JsonValue manifest = JsonValue::object();
  manifest.set("experiment", "fig10");
  manifest.set("shards", static_cast<std::int64_t>(shard.count));
  return SweepStore::open_shard(dir, shard, manifest);
}

TEST(BatchRunner, Fig10GridSimulatesEachDecisionClassOnce) {
  // C4 = 3CCC, 2SC3 = 3SCC and 2C3S = 3CCS decide alike: 3 x 9 of the
  // 144 kFast jobs take their twin's result. kFull jobs never group.
  for (const unsigned workers : {1u, 4u}) {
    std::uint64_t before = simulations_run();
    (void)run_batch(fig10_grid(StatsLevel::kFast), {.workers = workers});
    EXPECT_EQ(simulations_run() - before, 117u) << workers << " workers";
    before = simulations_run();
    (void)run_batch(fig10_grid(StatsLevel::kFull), {.workers = workers});
    EXPECT_EQ(simulations_run() - before, 144u) << workers << " workers";
  }
  // The registered fig10 experiment lays its batch out the same way.
  ExperimentParams params;
  params.cfg.sim = fig10_grid(StatsLevel::kFast).front().sim;
  const std::uint64_t before = simulations_run();
  (void)ExperimentRegistry::instance().find("fig10")->run(RunContext{params});
  EXPECT_EQ(simulations_run() - before, 117u);
}

TEST(BatchRunner, GroupedResultsEqualDirectRuns) {
  for (const StatsLevel stats : {StatsLevel::kFast, StatsLevel::kFull}) {
    const std::vector<BatchJob> jobs = fig10_grid(stats);
    const std::vector<std::string> direct = direct_runs(jobs);
    for (const unsigned workers : {1u, 4u}) {
      for (const bool with_store : {false, true}) {
        std::unique_ptr<SweepStore> store;
        if (with_store) store = fresh_store("direct", ShardSpec{0, 1});
        const std::vector<SimResult> results =
            run_batch(jobs, {.workers = workers, .store = store.get()});
        for (std::size_t i = 0; i < jobs.size(); ++i)
          ASSERT_EQ(result_bytes(results[i]), direct[i])
              << jobs[i].scheme.name() << " job " << i << ", " << workers
              << " workers, store " << with_store;
      }
    }
  }
}

TEST(BatchRunner, ShardedStoreTwinsDeriveOnlyFromHeldResults) {
  // Three shards run in turn on one store: a twin whose first job belongs
  // to a later shard simulates on its own; one whose first job is
  // computed here or already logged derives from it. Either way every
  // point this shard returns, and every point the merge replays, equals
  // a direct run.
  const std::vector<BatchJob> jobs = fig10_grid(StatsLevel::kFast);
  const std::vector<std::string> direct = direct_runs(jobs);
  std::size_t returned = 0;
  for (unsigned k = 0; k < 3; ++k) {
    const std::unique_ptr<SweepStore> store =
        fresh_store("sharded", ShardSpec{k, 3});
    const std::vector<SimResult> results =
        run_batch(jobs, {.workers = 4, .store = store.get()});
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (results[i].threads.empty()) continue;  // another shard's point
      ++returned;
      ASSERT_EQ(result_bytes(results[i]), direct[i]) << "shard " << k
                                                     << " job " << i;
    }
  }
  EXPECT_GE(returned, jobs.size());
  const std::unique_ptr<SweepStore> merged = SweepStore::open_merge(
      testing::TempDir() + "cvmt_batch_sharded");
  const std::vector<SimResult> replayed =
      run_batch(jobs, {.workers = 4, .store = merged.get()});
  for (std::size_t i = 0; i < jobs.size(); ++i)
    ASSERT_EQ(result_bytes(replayed[i]), direct[i]) << "job " << i;
  EXPECT_EQ(merged->counters().replayed, jobs.size());
}

}  // namespace
}  // namespace cvmt
