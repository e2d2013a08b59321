#include "store/sweep_store.hpp"

#include <utility>

#include "support/check.hpp"

namespace cvmt {

SweepStore::SweepStore(Mode mode, std::string dir, ShardSpec shard,
                       JsonValue manifest)
    : mode_(mode),
      dir_(std::move(dir)),
      shard_(shard),
      manifest_(std::move(manifest)) {}

void SweepStore::load_logs() {
  // Logs from *every* shard load, not just this one's: a point another
  // shard finished earlier resumes here too, and once all shards have
  // run, any single rerun sees the complete grid (its derived sections
  // then compute from real values).
  for (const std::string& path : list_shard_logs(dir_)) {
    const LogScan scan = scan_log(path);
    for (const StoreRecord& rec : scan.records)
      results_[rec.key] = sim_result_from_json(rec.result);
  }
  loaded_ = results_.size();
}

std::unique_ptr<SweepStore> SweepStore::open_shard(
    const std::string& dir, ShardSpec shard, const JsonValue& manifest) {
  write_or_check_manifest(dir, manifest);
  std::unique_ptr<SweepStore> store(
      new SweepStore(Mode::kShard, dir, shard, manifest));
  store->load_logs();
  // The writer recovers (truncates) a torn tail before the first append;
  // scan_log above already refused to trust it, so a record lost to a
  // crash is recomputed, never resurrected.
  store->writer_ = std::make_unique<ShardLogWriter>(
      shard_log_path(dir, shard.index, shard.count));
  return store;
}

std::unique_ptr<SweepStore> SweepStore::open_merge(const std::string& dir) {
  JsonValue manifest = read_manifest(dir);
  const unsigned count = static_cast<unsigned>(
      manifest.get("shards").as_int());
  std::unique_ptr<SweepStore> store(new SweepStore(
      Mode::kReplay, dir, ShardSpec{0, count}, std::move(manifest)));
  store->load_logs();
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
  const JsonValue json = sim_result_to_json(result);
  std::lock_guard<std::mutex> lock(mu_);
  // Recheck under the lock: two workers can race to the same key only if
  // an experiment enqueues a duplicate grid point; first append wins.
  if (results_.find(key) == results_.end()) {
    writer_->append(key, json);
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
