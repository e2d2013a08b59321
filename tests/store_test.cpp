// The on-disk result store behind sharded, resumable sweeps: record
// framing and torn-tail recovery (every truncation, every byte flip, a
// length beyond the file), the memory a store's open holds, the lossless
// SimResult JSON round trip, deterministic shard partitioning,
// resume-without-recompute (pinned by a compute-call counter), replay's
// missing-point diagnostics, and the end-to-end byte-identity contract —
// shard + merge reproduces the unsharded `cvmt run --format=json` bytes
// exactly.
#include <gtest/gtest.h>
#include <sys/resource.h>

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
#include "testgen/oracle.hpp"

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

/// One record as the scan's visitor saw it, copied out of the call.
struct SeenRecord {
  std::string key;
  JsonValue result;
};

/// scan_log, with every record it visits copied into `seen` in order.
LogScan scan_into(const std::string& path, std::vector<SeenRecord>& seen) {
  seen.clear();
  return scan_log(path, [&](const std::string& key, const JsonValue& result) {
    seen.push_back({key, result});
  });
}

/// This process's peak resident set so far, in KB.
long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// The manifest the driver would install for this test's parameters.
JsonValue test_manifest(unsigned shard_count) {
  ExperimentParams p;
  p.cfg.sim = tiny_sim();
  return p.to_manifest_json("fig10", shard_count);
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
  std::vector<SeenRecord> seen;
  const LogScan intact = scan_into(path, seen);
  EXPECT_EQ(intact.records, 2u);
  EXPECT_FALSE(intact.torn);
  EXPECT_EQ(intact.good_bytes, std::filesystem::file_size(path));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].key, "key-one");
  EXPECT_EQ(seen[1].key, "key-two");
  EXPECT_EQ(seen[1].result.get("cycles").as_int(), 456);

  // A missing file is an empty, untorn log.
  const LogScan missing = scan_into(dir + "/no-such.log", seen);
  EXPECT_EQ(missing.records, 0u);
  EXPECT_TRUE(seen.empty());
  EXPECT_FALSE(missing.torn);

  // SIGKILL mid-append: only a prefix of the last record made it out.
  const std::string full = read_file(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << full.substr(0, full.size() - 5);
  }
  const LogScan torn = scan_into(path, seen);
  EXPECT_EQ(torn.records, 1u);
  EXPECT_TRUE(torn.torn);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].key, "key-one");

  // Reopening the writer truncates the torn tail before appending.
  {
    ShardLogWriter w(path);
    w.append("key-three", r2);
  }
  const LogScan recovered = scan_into(path, seen);
  EXPECT_EQ(recovered.records, 2u);
  EXPECT_FALSE(recovered.torn);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].key, "key-one");
  EXPECT_EQ(seen[1].key, "key-three");
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
  std::vector<SeenRecord> seen;
  const LogScan scan = scan_into(path, seen);
  EXPECT_EQ(scan.records, 1u);
  EXPECT_TRUE(scan.torn);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].key, "good");
  // Garbage appended after intact records is likewise quarantined.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << encode_record("good", r) << "XYZ";
  }
  const LogScan tail = scan_log(path);
  EXPECT_EQ(tail.records, 1u);
  EXPECT_TRUE(tail.torn);
  EXPECT_EQ(tail.good_bytes, encode_record("good", r).size());
}

// Every way a crash or a bad disk can damage a 3-record log: each prefix
// keeps exactly the records that end inside it, and each single-byte
// flip stops the scan at the start of the record that holds the byte (a
// changed byte always changes FNV-1a over the same length, and a changed
// header misframes the record or fails its checksum).
TEST(Store, EveryTruncationAndEveryByteFlipScansToTheIntactPrefix) {
  const std::string dir = fresh_dir("every_cut");
  const std::string path = shard_log_path(dir, 0, 1);
  std::vector<std::uint64_t> ends;  // file offset after each record
  {
    ShardLogWriter w(path);
    for (int i = 0; i < 3; ++i) {
      JsonValue r = JsonValue::object();
      r.set("cycles", 1000 + i);
      r.set("scheme", std::string(static_cast<std::size_t>(i) + 1, 'x'));
      w.append("key-" + std::to_string(i), r);  // flushes the record
      ends.push_back(std::filesystem::file_size(path));
    }
  }
  const std::string full = read_file(path);
  ASSERT_EQ(full.size(), ends.back());
  const auto write_log = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  };

  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    write_log(full.substr(0, cut));
    const LogScan scan = scan_log(path);
    std::size_t intact = 0;
    std::uint64_t good = 0;
    for (const std::uint64_t end : ends)
      if (end <= cut) {
        ++intact;
        good = end;
      }
    EXPECT_EQ(scan.records, intact) << "cut at " << cut;
    EXPECT_EQ(scan.good_bytes, good) << "cut at " << cut;
    EXPECT_EQ(scan.torn, good != cut) << "cut at " << cut;
  }

  for (std::size_t at = 0; at < full.size(); ++at) {
    std::string bytes = full;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
    write_log(bytes);
    const LogScan scan = scan_log(path);
    std::size_t holder = 0;  // the record that holds byte `at`
    while (ends[holder] <= at) ++holder;
    const std::uint64_t start = holder == 0 ? 0 : ends[holder - 1];
    EXPECT_EQ(scan.records, holder) << "flip at " << at;
    EXPECT_EQ(scan.good_bytes, start) << "flip at " << at;
    EXPECT_TRUE(scan.torn) << "flip at " << at;
  }
}

// A torn header can claim any length up to the 1 GiB framing bound. The
// scan compares it with the bytes left in the file before it sizes its
// buffer; without that check this log would allocate and zero 1 GiB.
TEST(Store, ALengthBeyondTheFileIsTornWithoutAllocatingIt) {
  const std::string dir = fresh_dir("huge_length");
  const std::string path = shard_log_path(dir, 0, 1);
  JsonValue r = JsonValue::object();
  r.set("cycles", 1);
  const std::string good = encode_record("good", r);
  std::string bytes = good + "CVS1";
  const std::uint32_t claimed = (1u << 30) - 1;
  for (int i = 0; i < 4; ++i)
    bytes.push_back(static_cast<char>(claimed >> (8 * i)));
  bytes.append(8, '\0');  // the checksum
  bytes += "abc";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const long before_kb = peak_rss_kb();
  const LogScan scan = scan_log(path);
  const long grown_kb = peak_rss_kb() - before_kb;
  EXPECT_EQ(scan.records, 1u);
  EXPECT_EQ(scan.good_bytes, good.size());
  EXPECT_TRUE(scan.torn);
  EXPECT_LT(grown_kb, 64 * 1024);
}

// Opening a store decodes each record as it is read and drops its JSON,
// so what an open holds grows with the decoded points, not with the log:
// one real result logged under 4,000 keys makes a log of about 5.6 MB,
// whose records held as JSON trees would take about 58 MB.
TEST(Store, OpeningAStoreHoldsOneRecordsJsonAtATime) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer keeps freed memory resident";
#endif
  const std::string dir = fresh_dir("many_records");
  write_or_check_manifest(dir, test_manifest(1));
  std::vector<BatchJob> jobs = small_grid(StatsLevel::kFull);
  jobs.resize(1);
  const SimResult r = run_batch(jobs, {.workers = 1}).front();
  constexpr std::size_t kPoints = 4000;
  {
    ShardLogWriter w(shard_log_path(dir, 0, 1));
    for (std::size_t i = 0; i < kPoints; ++i)
      w.append("point-" + std::to_string(i), sim_result_to_json(r));
  }
  const long before_kb = peak_rss_kb();
  const auto store = SweepStore::open_merge(dir);
  const long grown_kb = peak_rss_kb() - before_kb;
  EXPECT_EQ(store->loaded_points(), kPoints);
  EXPECT_LT(grown_kb, 24 * 1024)
      << "log of " << std::filesystem::file_size(shard_log_path(dir, 0, 1))
      << " bytes";
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
    EXPECT_EQ(compare_sim_results(r, back, true), "");
    // And the re-serialization is byte-stable.
    EXPECT_EQ(sim_result_to_json(back).dump(-1), direct.dump(-1));
  }
}

TEST(Store, DecoderRejectsThreadCountersThatDisagreeWithStats) {
  // A record writes each thread's instructions and ops twice: beside its
  // stats and inside them. SimResult holds them once, so a record whose
  // two copies disagree is corrupt and must not load.
  std::vector<BatchJob> jobs = small_grid(StatsLevel::kFull);
  jobs.resize(1);
  const SimResult r = run_batch(jobs, {.workers = 1}).front();
  const ThreadStats& t0 = r.threads.front().stats;
  const std::string text = sim_result_to_json(r).dump(-1);
  EXPECT_EQ(compare_sim_results(
                r, sim_result_from_json(JsonValue::parse(text)), true),
            "");
  const std::pair<std::string, std::string> edits[] = {
      {"\"instructions\":" + std::to_string(t0.instructions) + ",\"ops\"",
       "\"instructions\":" + std::to_string(t0.instructions + 1) +
           ",\"ops\""},
      {"\"ops\":" + std::to_string(t0.ops) + ",\"stats\"",
       "\"ops\":" + std::to_string(t0.ops + 1) + ",\"stats\""},
  };
  for (const auto& [from, to] : edits) {
    std::string bad = text;
    const std::size_t at = bad.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bad.replace(at, from.size(), to);
    EXPECT_THROW((void)sim_result_from_json(JsonValue::parse(bad)),
                 CheckError)
        << to;
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
        EXPECT_EQ(compare_sim_results(partial[i], reference[i], true), "");
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
    EXPECT_EQ(compare_sim_results(replayed[i], reference[i], true), "");
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
    EXPECT_EQ(compare_sim_results(r, first[i], true), "");
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

// Resume after a torn tail, through a store path spelled DIR/: the own
// log is found in the directory listing by file name, so the torn record
// is truncated before the recomputed point is appended. Were it matched
// by path string (DIR//shard-... against DIR/shard-...), the append would
// land after the torn bytes and the merge would miss that point.
TEST(Store, ATornTailResumedThroughATrailingSlashIsTruncatedFirst) {
  const std::string dir = fresh_dir("slash");
  const std::vector<BatchJob> jobs = small_grid();
  const std::vector<SimResult> reference = run_batch(jobs, {.workers = 1});
  const auto run_shard = [&](const std::string& store_dir, unsigned k) {
    auto store = SweepStore::open_shard(store_dir, ShardSpec{k, 2},
                                        test_manifest(2));
    BatchOptions opts;
    opts.workers = 1;
    opts.store = store.get();
    (void)run_batch(jobs, opts);
    return store->counters();
  };
  (void)run_shard(dir, 0);
  (void)run_shard(dir, 1);
  const std::string log = shard_log_path(dir, 1, 2);
  const std::string finished = read_file(log);
  std::filesystem::resize_file(log, finished.size() - 5);
  ASSERT_TRUE(scan_log(log).torn);

  EXPECT_EQ(run_shard(dir + "/", 1).computed, 1u);
  // Truncated, then the same point appended again: the finished bytes.
  EXPECT_EQ(read_file(log), finished);

  auto merged = SweepStore::open_merge(dir);
  BatchOptions opts;
  opts.workers = 1;
  opts.store = merged.get();
  const std::vector<SimResult> replayed = run_batch(jobs, opts);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(compare_sim_results(replayed[i], reference[i], true), "");
  EXPECT_EQ(merged->counters().replayed, jobs.size());
}

// An open decodes a key's first record and skips its duplicates (first
// record wins), and a record that parses as JSON but is not a SimResult
// fails the open with the decoder's error instead of passing for a torn
// tail.
TEST(Store, OpenKeepsEachKeysFirstRecordAndRejectsANonResult) {
  const std::string dir = fresh_dir("first_wins");
  write_or_check_manifest(dir, test_manifest(1));
  std::vector<BatchJob> jobs = small_grid();
  jobs.resize(1);
  const SimResult first = run_batch(jobs, {.workers = 1}).front();
  SimResult second = first;
  ++second.cycles;
  const std::string path = shard_log_path(dir, 0, 1);
  {
    ShardLogWriter w(path);
    w.append(point_key(jobs[0]), sim_result_to_json(first));
    w.append(point_key(jobs[0]), sim_result_to_json(second));
  }
  const auto store = SweepStore::open_merge(dir);
  EXPECT_EQ(store->loaded_points(), 1u);
  const SimResult replayed =
      store->run_point(jobs[0], []() -> SimResult { return {}; });
  EXPECT_EQ(compare_sim_results(replayed, first, true), "");

  {
    ShardLogWriter w(path);
    w.append("not-a-result", JsonValue::object());
  }
  EXPECT_THROW((void)SweepStore::open_merge(dir), CheckError);
  EXPECT_FALSE(scan_log(path).torn);
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

// The manifest's shard count is checked before it narrows to unsigned:
// on a store whose logs hold every point, a missing, non-integer or
// out-of-range count is a usage error that names the field, never a
// broken invariant or a run.
TEST(StoreCli, MergeRejectsAManifestShardCountOutOfRange) {
  const std::string store = fresh_dir("cli_shards") + "/store";
  ASSERT_EQ(run_cli({"cvmt", "run", "fig4", "--budget=10000",
                     "--timeslice=2500", "--store=" + store}),
            0);
  const std::string path = store + "/manifest.json";
  const std::string manifest = read_file(path);
  const std::string field = "\"shards\": 1";
  const std::size_t at = manifest.find(field);
  ASSERT_NE(at, std::string::npos) << manifest;
  ASSERT_EQ(run_cli({"cvmt", "merge", "--store=" + store}), 0);
  for (const char* edit :
       {"\"shards\": 0", "\"shards\": -1", "\"shards\": 4294967298",
        "\"shards\": \"1\"", "\"shardz\": 1"}) {
    std::string edited = manifest;
    edited.replace(at, field.size(), edit);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << edited;
    }
    testing::internal::CaptureStderr();
    const int code = run_cli({"cvmt", "merge", "--store=" + store});
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 2) << edit;
    EXPECT_NE(err.find("\"shards\""), std::string::npos) << err;
    EXPECT_EQ(err.find("CVMT_CHECK"), std::string::npos) << err;
  }
}

// merge-efficiency runs its grid through run_batch like every runner: a
// --store run logs each of its 8 points, and `cvmt merge` replays them
// without simulating — so with the log gone it fails, naming a point.
TEST(StoreCli, MergeEfficiencyLogsEveryPointAndReplayNeverSimulates) {
  const std::string store = fresh_dir("cli_merge_efficiency") + "/store";
  ASSERT_EQ(run_cli({"cvmt", "run", "merge-efficiency", "--budget=10000",
                     "--timeslice=2500", "--store=" + store}),
            0);
  const std::string log = shard_log_path(store, 0, 1);
  EXPECT_EQ(scan_log(log).records, 8u);
  std::filesystem::remove(log);
  testing::internal::CaptureStderr();
  const int code = run_cli({"cvmt", "merge", "--store=" + store});
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("cvmt run merge-efficiency"), std::string::npos) << err;
  EXPECT_NE(err.find("missing key: R1|S|"), std::string::npos) << err;
}

}  // namespace
}  // namespace cvmt
