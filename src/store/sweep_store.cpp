#include "store/sweep_store.hpp"

#include <filesystem>
#include <utility>

#include "support/check.hpp"

namespace cvmt {

SweepStore::SweepStore(Mode mode, std::string dir, ShardSpec shard,
                       JsonValue manifest)
    : mode_(mode),
      dir_(std::move(dir)),
      shard_(shard),
      manifest_(std::move(manifest)) {}

LogScan SweepStore::load_logs(std::string_view own_log) {
  // Logs from *every* shard load, not just this one's: a point another
  // shard finished earlier resumes here too, and once all shards have
  // run, any single rerun sees the complete grid (its derived sections
  // then compute from real values). Each record decodes as it is read,
  // and only a key's first record decodes: first record wins.
  LogScan own;
  for (const std::string& path : list_shard_logs(dir_)) {
    const LogScan scan = scan_log(path, [this](const std::string& key,
                                               const JsonValue& result) {
      if (const auto [it, fresh] = results_.try_emplace(key); fresh)
        it->second = sim_result_from_json(result);
    });
    // By file name: the listing spells the directory its own way (a
    // store given as DIR/ is listed as DIR/shard-..., not DIR//shard-...).
    if (std::filesystem::path(path).filename() == own_log) own = scan;
  }
  loaded_ = results_.size();
  return own;
}

std::unique_ptr<SweepStore> SweepStore::open_shard(
    const std::string& dir, ShardSpec shard, const JsonValue& manifest) {
  write_or_check_manifest(dir, manifest);
  std::unique_ptr<SweepStore> store(
      new SweepStore(Mode::kShard, dir, shard, manifest));
  // The writer truncates a torn tail of the own log before the first
  // append; the scan already refused to trust it, so a record lost to a
  // crash is recomputed, never resurrected.
  const LogScan own =
      store->load_logs(shard_log_name(shard.index, shard.count));
  store->writer_ = std::make_unique<ShardLogWriter>(
      shard_log_path(dir, shard.index, shard.count), own);
  return store;
}

std::unique_ptr<SweepStore> SweepStore::open_merge(const std::string& dir) {
  JsonValue manifest = read_manifest(dir);
  // Checked before it narrows: a hand-edited count of 0, -1 or 2^32 + 2
  // must not reach shard_of or the resume command it prints.
  CVMT_REQUIRE(manifest.kind() == JsonValue::Kind::kObject,
               "store manifest must be a JSON object");
  CVMT_REQUIRE(manifest.find("shards") != nullptr,
               "store manifest has no field \"shards\"");
  const auto count = static_cast<unsigned>(
      get_u64_field(manifest, "shards", 0, 1, kMaxShards));
  std::unique_ptr<SweepStore> store(new SweepStore(
      Mode::kReplay, dir, ShardSpec{0, count}, std::move(manifest)));
  store->load_logs({});
  return store;
}

SimResult SweepStore::run_point(const BatchJob& job,
                                const std::function<SimResult()>& compute,
                                bool* held) {
  const std::string key = point_key(job);
  if (held != nullptr) *held = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.total;
    if (const auto it = results_.find(key); it != results_.end()) {
      if (mode_ == Mode::kShard)
        ++counters_.resumed;
      else
        ++counters_.replayed;
      return it->second;
    }
  }
  if (mode_ == Mode::kReplay) {
    const unsigned owner = shard_of(key, shard_.count);
    throw CheckError(
        "store: '" + dir_ + "' is missing a grid point owned by shard " +
        std::to_string(owner) + "/" + std::to_string(shard_.count) +
        ".\n  resume it with: cvmt run " +
        manifest_.get("experiment").as_string() + " --shard " +
        std::to_string(owner) + "/" + std::to_string(shard_.count) +
        " --store " + dir_ + "\n  missing key: " + key);
  }
  if (shard_of(key, shard_.count) != shard_.index) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.skipped;
    if (held != nullptr) *held = false;
    return SimResult{};
  }
  SimResult result;
  try {
    result = compute();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.failed;
    throw;
  }
  JsonValue json = sim_result_to_json(result);
  std::lock_guard<std::mutex> lock(mu_);
  // Recheck under the lock: two workers can race to the same key only if
  // an experiment enqueues a duplicate grid point; first append wins.
  if (results_.find(key) == results_.end()) {
    writer_->append(key, std::move(json));
    results_.emplace(key, result);
    ++counters_.computed;
  } else {
    ++counters_.resumed;
  }
  return result;
}

SweepStore::Counters SweepStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace cvmt
