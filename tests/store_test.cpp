// The on-disk result store behind sharded, resumable sweeps: record
// framing and torn-tail recovery, the lossless SimResult JSON round trip,
// deterministic shard partitioning, resume-without-recompute (pinned by a
// compute-call counter), replay's missing-point diagnostics, and the
// end-to-end byte-identity contract — shard + merge reproduces the
// unsharded `cvmt run --format=json` bytes exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/batch_runner.hpp"
#include "exp/driver.hpp"
#include "store/result_store.hpp"
#include "store/sweep_store.hpp"
#include "support/check.hpp"

namespace cvmt {
namespace {

/// A fresh, empty store directory under the test temp root.
std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "cvmt_store_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

SimConfig tiny_sim() {
  SimConfig sim;
  sim.instruction_budget = 10'000;
  sim.timeslice_cycles = 2'500;
  return sim;
}

std::vector<BatchJob> small_grid(StatsLevel stats = StatsLevel::kFast) {
  SimConfig sim = tiny_sim();
  sim.stats = stats;
  std::vector<BatchJob> jobs;
  for (const char* name : {"1S", "2SC", "3CCC"})
    for (const Workload& w : table2_workloads())
      jobs.push_back(make_job(Scheme::parse(name), w, sim));
  return jobs;
}

/// The manifest the driver would install for this test's parameters.
JsonValue test_manifest(unsigned shard_count) {
  ExperimentParams p;
  p.cfg.sim = tiny_sim();
  return p.to_manifest_json("fig10", shard_count);
}

/// Every field of two SimResults, bit for bit — including the histogram's
/// internal weighted sum, which buckets alone cannot reproduce.
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
    EXPECT_EQ(ta.stats.instructions, tb.stats.instructions);
    EXPECT_EQ(ta.stats.bubbles, tb.stats.bubbles);
    EXPECT_EQ(ta.stats.ops, tb.stats.ops);
    EXPECT_EQ(ta.stats.taken_branches, tb.stats.taken_branches);
    EXPECT_EQ(ta.stats.dcache_stall_cycles, tb.stats.dcache_stall_cycles);
    EXPECT_EQ(ta.stats.icache_stall_cycles, tb.stats.icache_stall_cycles);
    EXPECT_EQ(ta.stats.branch_stall_cycles, tb.stats.branch_stall_cycles);
    EXPECT_EQ(ta.stats.bank_conflict_cycles, tb.stats.bank_conflict_cycles);
  }
  EXPECT_EQ(a.icache.hits, b.icache.hits);
  EXPECT_EQ(a.icache.total, b.icache.total);
  EXPECT_EQ(a.dcache.hits, b.dcache.hits);
  EXPECT_EQ(a.dcache.total, b.dcache.total);
  EXPECT_EQ(a.l2.hits, b.l2.hits);
  EXPECT_EQ(a.l2.total, b.l2.total);
  ASSERT_EQ(a.issued_per_cycle.num_buckets(),
            b.issued_per_cycle.num_buckets());
  for (std::size_t i = 0; i < a.issued_per_cycle.num_buckets(); ++i)
    EXPECT_EQ(a.issued_per_cycle.bucket(i), b.issued_per_cycle.bucket(i));
  EXPECT_EQ(a.issued_per_cycle.total(), b.issued_per_cycle.total());
  EXPECT_EQ(a.issued_per_cycle.weighted_sum(),
            b.issued_per_cycle.weighted_sum());
  ASSERT_EQ(a.merge_nodes.size(), b.merge_nodes.size());
  for (std::size_t i = 0; i < a.merge_nodes.size(); ++i) {
    EXPECT_EQ(a.merge_nodes[i].label, b.merge_nodes[i].label);
    EXPECT_EQ(a.merge_nodes[i].kind, b.merge_nodes[i].kind);
    EXPECT_EQ(a.merge_nodes[i].attempts, b.merge_nodes[i].attempts);
    EXPECT_EQ(a.merge_nodes[i].rejects, b.merge_nodes[i].rejects);
  }
  EXPECT_EQ(a.os.context_switches, b.os.context_switches);
  EXPECT_EQ(a.os.timeslices, b.os.timeslices);
}

// --- hashing and sharding -------------------------------------------------

// FNV-1a 64 reference vectors: shard assignment and record checksums are
// on-disk contracts, so the hash must never change.
TEST(Store, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Store, ParseShardSpecAcceptsAndRejects) {
  EXPECT_EQ(parse_shard_spec("0/1").index, 0u);
  EXPECT_EQ(parse_shard_spec("0/1").count, 1u);
  EXPECT_EQ(parse_shard_spec("3/4").index, 3u);
  EXPECT_EQ(parse_shard_spec("3/4").count, 4u);
  EXPECT_EQ(parse_shard_spec("0/4096").count, 4096u);
  for (const char* bad : {"", "1", "4/4", "5/4", "-1/4", "1/-4", "a/b",
                          "1/0", "0/4097", "1/4/2", "1/4 ", " 1/4",
                          "0x1/4"})
    EXPECT_THROW((void)parse_shard_spec(bad), CheckError) << bad;
}

TEST(Store, ShardOfIsDeterministicAndPartitionsTheGrid) {
  const std::vector<BatchJob> jobs = small_grid();
  std::set<std::string> keys;
  for (const BatchJob& job : jobs) {
    const std::string key = point_key(job);
    EXPECT_TRUE(keys.insert(key).second) << "duplicate key " << key;
    for (unsigned n : {1u, 2u, 4u, 7u}) {
      const unsigned shard = shard_of(key, n);
      EXPECT_LT(shard, n);
      EXPECT_EQ(shard, shard_of(key, n));  // stable
    }
    EXPECT_EQ(shard_of(key, 1), 0u);
  }
  // A 4-way split genuinely spreads this grid (probabilistic in
  // principle, deterministic in fact: the keys are fixed).
  std::set<unsigned> used;
  for (const std::string& key : keys) used.insert(shard_of(key, 4));
  EXPECT_GT(used.size(), 1u);
}

TEST(Store, PointKeyIgnoresExecutionKnobsButNotSimParameters) {
  const Workload& wl = table2_workloads().front();
  const BatchJob a = make_job(Scheme::parse("2SC"), wl, tiny_sim());
  // Same logical point => same key.
  EXPECT_EQ(point_key(a), point_key(make_job(Scheme::parse("2SC"), wl,
                                             tiny_sim())));
  // A different budget is a different grid point.
  SimConfig other = tiny_sim();
  other.instruction_budget = 20'000;
  EXPECT_NE(point_key(a),
            point_key(make_job(Scheme::parse("2SC"), wl, other)));
  // A different scheme is a different grid point.
  EXPECT_NE(point_key(a),
            point_key(make_job(Scheme::parse("3CCC"), wl, tiny_sim())));
}

// --- the record codec and torn-tail recovery ------------------------------

TEST(Store, LogRoundTripsRecordsAndDetectsTornTail) {
  const std::string dir = fresh_dir("log");
  const std::string path = shard_log_path(dir, 0, 2);
  EXPECT_NE(path.find("shard-0-of-2.log"), std::string::npos);

  JsonValue r1 = JsonValue::object();
  r1.set("cycles", 123);
  JsonValue r2 = JsonValue::object();
  r2.set("cycles", 456);
  {
    ShardLogWriter w(path);
    w.append("key-one", r1);
    w.append("key-two", r2);
  }
  const LogScan intact = scan_log(path);
  ASSERT_EQ(intact.records.size(), 2u);
  EXPECT_FALSE(intact.torn);
  EXPECT_EQ(intact.good_bytes, std::filesystem::file_size(path));
  EXPECT_EQ(intact.records[0].key, "key-one");
  EXPECT_EQ(intact.records[1].key, "key-two");
  EXPECT_EQ(intact.records[1].result.get("cycles").as_int(), 456);

  // A missing file is an empty, untorn log.
  const LogScan missing = scan_log(dir + "/no-such.log");
  EXPECT_TRUE(missing.records.empty());
  EXPECT_FALSE(missing.torn);

  // SIGKILL mid-append: only a prefix of the last record made it out.
  const std::string full = read_file(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << full.substr(0, full.size() - 5);
  }
  const LogScan torn = scan_log(path);
  ASSERT_EQ(torn.records.size(), 1u);
  EXPECT_TRUE(torn.torn);
  EXPECT_EQ(torn.records[0].key, "key-one");

  // Reopening the writer truncates the torn tail before appending.
  {
    ShardLogWriter w(path);
    w.append("key-three", r2);
  }
  const LogScan recovered = scan_log(path);
  ASSERT_EQ(recovered.records.size(), 2u);
  EXPECT_FALSE(recovered.torn);
  EXPECT_EQ(recovered.records[0].key, "key-one");
  EXPECT_EQ(recovered.records[1].key, "key-three");
}

TEST(Store, CorruptChecksumStopsTheScanAtTheLastGoodRecord) {
  const std::string dir = fresh_dir("corrupt");
  const std::string path = shard_log_path(dir, 0, 1);
  JsonValue r = JsonValue::object();
  r.set("v", 1);
  {
    ShardLogWriter w(path);
    w.append("good", r);
    w.append("flipped", r);
  }
  std::string bytes = read_file(path);
  bytes.back() ^= 0x01;  // flip one payload byte of the second record
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const LogScan scan = scan_log(path);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.records[0].key, "good");
  // Garbage appended after intact records is likewise quarantined.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << encode_record("good", r) << "XYZ";
  }
  const LogScan tail = scan_log(path);
  ASSERT_EQ(tail.records.size(), 1u);
  EXPECT_TRUE(tail.torn);
  EXPECT_EQ(tail.good_bytes, encode_record("good", r).size());
}

// --- the SimResult JSON round trip ----------------------------------------

TEST(Store, SimResultJsonRoundTripIsBitExact) {
  // Full stats populate every optional corner: merge-node telemetry, the
  // issue histogram, per-thread stall breakdowns.
  std::vector<BatchJob> jobs = small_grid(StatsLevel::kFull);
  jobs.resize(2);
  const std::vector<SimResult> results = run_batch(jobs, {.workers = 1});
  for (const SimResult& r : results) {
    const JsonValue direct = sim_result_to_json(r);
    // Through the actual on-disk representation: dumped and reparsed.
    const JsonValue reread = JsonValue::parse(direct.dump(-1));
    const SimResult back = sim_result_from_json(reread);
    expect_identical(r, back);
    // And the re-serialization is byte-stable.
    EXPECT_EQ(sim_result_to_json(back).dump(-1), direct.dump(-1));
  }
}

// --- the sweep store ------------------------------------------------------

TEST(Store, ShardsComputeDisjointSubsetsAndUnionIsTheGrid) {
  const std::string dir = fresh_dir("shards");
  const std::vector<BatchJob> jobs = small_grid();
  const std::vector<SimResult> reference = run_batch(jobs, {.workers = 1});

  std::uint64_t computed_total = 0;
  for (unsigned k = 0; k < 2; ++k) {
    auto store = SweepStore::open_shard(dir, ShardSpec{k, 2},
                                        test_manifest(2));
    BatchOptions opts;
    opts.workers = 2;
    opts.store = store.get();
    const std::vector<SimResult> partial = run_batch(jobs, opts);
    const SweepStore::Counters c = store->counters();
    EXPECT_EQ(c.total, jobs.size());
    EXPECT_EQ(c.computed + c.skipped + c.resumed, jobs.size());
    EXPECT_EQ(c.failed, 0u);
    computed_total += c.computed;
    // Own points carry real results, and so do points an earlier shard
    // already logged in this directory (any log resumes any run); only
    // points owned by shards that have not run yet come back defaulted.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const unsigned owner = shard_of(point_key(jobs[i]), 2);
      if (owner <= k)
        expect_identical(partial[i], reference[i]);
      else
        EXPECT_EQ(partial[i].cycles, 0u);
    }
  }
  EXPECT_EQ(computed_total, jobs.size());  // disjoint and complete

  // Merge replay serves the whole grid from the logs, bit-identically.
  auto merged = SweepStore::open_merge(dir);
  BatchOptions opts;
  opts.workers = 1;
  opts.store = merged.get();
  const std::vector<SimResult> replayed = run_batch(jobs, opts);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    expect_identical(replayed[i], reference[i]);
  const SweepStore::Counters c = merged->counters();
  EXPECT_EQ(c.replayed, jobs.size());
  EXPECT_EQ(c.computed, 0u);
}

// The acceptance pin: resuming a finished shard must not re-simulate a
// single grid point — counted at the compute callback itself.
TEST(Store, ResumeRecomputesNothing) {
  const std::string dir = fresh_dir("resume");
  const std::vector<BatchJob> jobs = small_grid();
  std::vector<SimResult> first;
  {
    auto store = SweepStore::open_shard(dir, ShardSpec{0, 1},
                                        test_manifest(1));
    BatchOptions opts;
    opts.workers = 1;
    opts.store = store.get();
    first = run_batch(jobs, opts);
    EXPECT_EQ(store->counters().computed, jobs.size());
    EXPECT_EQ(store->counters().resumed, 0u);
  }
  // Same command again: everything is served from the log.
  auto store = SweepStore::open_shard(dir, ShardSpec{0, 1},
                                      test_manifest(1));
  EXPECT_EQ(store->loaded_points(), jobs.size());
  std::uint64_t simulations = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const SimResult r = store->run_point(jobs[i], [&]() -> SimResult {
      ++simulations;
      return SimResult{};
    });
    expect_identical(r, first[i]);
  }
  EXPECT_EQ(simulations, 0u);
  EXPECT_EQ(store->counters().computed, 0u);
  EXPECT_EQ(store->counters().resumed, jobs.size());
}

// One shard's points resume every other run in the directory: a point
// computed by shard 0 is never recomputed by a 1/1 run over the same dir.
TEST(Store, PointsFromOtherShardsAreResumedNotRecomputed) {
  const std::string dir = fresh_dir("cross");
  const std::vector<BatchJob> jobs = small_grid();
  {
    auto store = SweepStore::open_shard(dir, ShardSpec{0, 2},
                                        test_manifest(2));
    BatchOptions opts;
    opts.store = store.get();
    (void)run_batch(jobs, opts);
    EXPECT_GT(store->counters().computed, 0u);
  }
  auto store = SweepStore::open_shard(dir, ShardSpec{1, 2},
                                      test_manifest(2));
  std::uint64_t recomputed_shard0_points = 0;
  for (const BatchJob& job : jobs) {
    if (shard_of(point_key(job), 2) != 0) continue;
    (void)store->run_point(job, [&]() -> SimResult {
      ++recomputed_shard0_points;
      return SimResult{};
    });
  }
  EXPECT_EQ(recomputed_shard0_points, 0u);
}

TEST(Store, ReplayOfAnIncompleteStoreNamesTheResumeCommand) {
  const std::string dir = fresh_dir("incomplete");
  const std::vector<BatchJob> jobs = small_grid();
  {
    // Only shard 0 of 2 ran; shard 1's points are missing.
    auto store = SweepStore::open_shard(dir, ShardSpec{0, 2},
                                        test_manifest(2));
    BatchOptions opts;
    opts.store = store.get();
    (void)run_batch(jobs, opts);
  }
  auto merged = SweepStore::open_merge(dir);
  bool threw = false;
  for (const BatchJob& job : jobs) {
    if (shard_of(point_key(job), 2) != 1) continue;
    try {
      (void)merged->run_point(job, []() -> SimResult { return {}; });
    } catch (const CheckError& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("--shard 1/2"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(dir), std::string::npos);
    }
    break;
  }
  EXPECT_TRUE(threw);
}

TEST(Store, ManifestMismatchFailsLoudly) {
  const std::string dir = fresh_dir("manifest");
  {
    auto store = SweepStore::open_shard(dir, ShardSpec{0, 2},
                                        test_manifest(2));
  }
  // Same sweep, same manifest: fine.
  EXPECT_NO_THROW((void)SweepStore::open_shard(dir, ShardSpec{1, 2},
                                               test_manifest(2)));
  // A different parameter set must not silently mix into the same dir.
  ExperimentParams other;
  other.cfg.sim = tiny_sim();
  other.cfg.sim.instruction_budget = 999;
  EXPECT_THROW((void)SweepStore::open_shard(
                   dir, ShardSpec{0, 2},
                   other.to_manifest_json("fig10", 2)),
               CheckError);
  // Merge of a directory without a manifest is a usage error.
  EXPECT_THROW((void)SweepStore::open_merge(fresh_dir("no_manifest")),
               CheckError);
}

TEST(Store, ManifestRoundTripsThroughExperimentParams) {
  ExperimentParams p;
  p.cfg.sim = tiny_sim();
  p.cfg.sim.stats = StatsLevel::kFull;
  const JsonValue manifest = p.to_manifest_json("table1", 4);
  EXPECT_EQ(manifest.get("experiment").as_string(), "table1");
  EXPECT_EQ(manifest.get("shards").as_int(), 4);

  std::string id;
  const ExperimentParams back =
      ExperimentParams::from_manifest_json(manifest, &id);
  EXPECT_EQ(id, "table1");
  EXPECT_EQ(back.cfg.sim.instruction_budget, 10'000u);
  EXPECT_EQ(back.cfg.sim.timeslice_cycles, 2'500u);
  EXPECT_EQ(back.cfg.sim.stats, StatsLevel::kFull);
  // Replay sees the whole grid: the reconstructed params are unsharded.
  EXPECT_EQ(back.shard_count, 1u);
  EXPECT_TRUE(back.cfg.batch.store == nullptr);
}

// --- the CLI contract: shard + merge == unsharded bytes -------------------

int run_cli(std::vector<std::string> args, std::string* out = nullptr) {
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& a : args) argv.push_back(a.c_str());
  testing::internal::CaptureStdout();
  const int code =
      cvmt_main(static_cast<int>(argv.size()), argv.data());
  const std::string captured = testing::internal::GetCapturedStdout();
  if (out != nullptr) *out = captured;
  return code;
}

void expect_shard_merge_reproduces_unsharded(const std::string& id) {
  const std::string dir = fresh_dir("cli_" + id);
  const std::string unsharded_path = dir + "/unsharded.json";
  const std::string merged_path = dir + "/merged.json";
  const std::string store = dir + "/store";

  ASSERT_EQ(run_cli({"cvmt", "run", id, "--budget=10000",
                     "--timeslice=2500", "--format=json",
                     "--out=" + unsharded_path}),
            0);
  for (unsigned k = 0; k < 4; ++k) {
    std::string summary;
    ASSERT_EQ(run_cli({"cvmt", "run", id, "--budget=10000",
                       "--timeslice=2500",
                       "--shard=" + std::to_string(k) + "/4",
                       "--store=" + store},
                      &summary),
              0)
        << "shard " << k;
    EXPECT_NE(summary.find("computed"), std::string::npos) << summary;
  }
  ASSERT_EQ(run_cli({"cvmt", "merge", "--store=" + store, "--format=json",
                     "--out=" + merged_path}),
            0);
  EXPECT_EQ(read_file(merged_path), read_file(unsharded_path)) << id;
}

TEST(StoreCli, ShardedFig10MergesToTheUnshardedBytes) {
  expect_shard_merge_reproduces_unsharded("fig10");
}

TEST(StoreCli, ShardedTable1MergesToTheUnshardedBytes) {
  expect_shard_merge_reproduces_unsharded("table1");
}

TEST(StoreCli, SingleShardStoreRunIsResumableAndByteIdentical) {
  const std::string dir = fresh_dir("cli_resume");
  const std::string store = dir + "/store";
  std::string plain;
  ASSERT_EQ(run_cli({"cvmt", "run", "fig4", "--budget=10000",
                     "--timeslice=2500", "--format=json"},
                    &plain),
            0);
  // First --store run computes and prints the normal experiment output.
  std::string first;
  ASSERT_EQ(run_cli({"cvmt", "run", "fig4", "--budget=10000",
                     "--timeslice=2500", "--format=json",
                     "--store=" + store},
                    &first),
            0);
  EXPECT_EQ(first, plain);
  // The rerun is served entirely from the logs — same bytes again.
  std::string second;
  ASSERT_EQ(run_cli({"cvmt", "run", "fig4", "--budget=10000",
                     "--timeslice=2500", "--format=json",
                     "--store=" + store},
                    &second),
            0);
  EXPECT_EQ(second, plain);
}

TEST(StoreCli, ShardFlagRequiresStoreAndSingleExperiment) {
  EXPECT_EQ(run_cli({"cvmt", "run", "fig4", "--shard=0/4"}), 2);
  EXPECT_EQ(run_cli({"cvmt", "run", "all", "--store=" +
                                               fresh_dir("cli_all")}),
            2);
  EXPECT_EQ(run_cli({"cvmt", "merge"}), 2);
  EXPECT_EQ(run_cli({"cvmt", "run", "fig4", "--store=" +
                                                fresh_dir("cli_badspec"),
                     "--shard=9/4"}),
            2);
}

TEST(StoreCli, MergeOfAPartialStoreFailsWithTheResumeCommand) {
  const std::string dir = fresh_dir("cli_partial");
  const std::string store = dir + "/store";
  ASSERT_EQ(run_cli({"cvmt", "run", "fig4", "--budget=10000",
                     "--timeslice=2500", "--shard=0/4",
                     "--store=" + store}),
            0);
  testing::internal::CaptureStderr();
  const int code = run_cli({"cvmt", "merge", "--store=" + store});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("cvmt run fig4"), std::string::npos) << err;
  EXPECT_NE(err.find("--shard"), std::string::npos) << err;
}

}  // namespace
}  // namespace cvmt
