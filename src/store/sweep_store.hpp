// The run_batch <-> result_store binding: a SweepStore mediates every
// grid point of a sharded or replayed sweep (BatchOptions::store).
//
// Shard mode (`cvmt run <id> --shard k/n --store DIR`): a point whose
// key hashes outside this shard is skipped (default-constructed result);
// a point already present in any shard log in DIR is returned from the
// loaded index without simulating (resume); everything else is computed
// and appended to this shard's own log before the result is returned.
//
// Replay mode (`cvmt merge --store DIR`): every point must already be in
// the logs; run_point never simulates, it only looks up — a missing
// point throws CheckError naming the shard command that will produce it.
// Because stored results round-trip bit-for-bit (result_store.hpp), the
// replayed experiment renders byte-identical table/CSV/JSON output to
// the unsharded run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "store/result_store.hpp"

namespace cvmt {

class SweepStore {
 public:
  /// What happened to the grid points this run saw. `mine` is the
  /// shard's own share (computed + resumed); the resume test pins
  /// computed == 0 on a second run of a finished shard.
  struct Counters {
    std::uint64_t total = 0;     ///< run_point calls
    std::uint64_t computed = 0;  ///< simulated and appended this run
    std::uint64_t resumed = 0;   ///< served from a log (shard mode)
    std::uint64_t replayed = 0;  ///< served from a log (replay mode)
    std::uint64_t skipped = 0;   ///< other shards' points, not simulated
    std::uint64_t failed = 0;    ///< compute() threw (rethrown to caller)
  };

  /// Opens DIR as shard `shard.index` of `shard.count`: installs (or
  /// verifies) the manifest, recovers + loads every shard log already in
  /// DIR, and opens this shard's own log for appends.
  [[nodiscard]] static std::unique_ptr<SweepStore> open_shard(
      const std::string& dir, ShardSpec shard, const JsonValue& manifest);

  /// Opens DIR for replay: reads the manifest and loads every shard log;
  /// run_point serves lookups only.
  [[nodiscard]] static std::unique_ptr<SweepStore> open_merge(
      const std::string& dir);

  /// Mediates one grid point (thread-safe; run_batch workers share one
  /// SweepStore). `compute` runs outside the lock. When `held` is set it
  /// receives whether the returned result is the point's real one
  /// (computed, resumed or replayed) rather than a skipped point's
  /// default-constructed placeholder.
  [[nodiscard]] SimResult run_point(const BatchJob& job,
                                    const std::function<SimResult()>& compute,
                                    bool* held = nullptr);

  [[nodiscard]] Counters counters() const;
  [[nodiscard]] const JsonValue& manifest() const { return manifest_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  /// Number of distinct grid points loaded from the logs at open.
  [[nodiscard]] std::size_t loaded_points() const { return loaded_; }

 private:
  enum class Mode : std::uint8_t { kShard, kReplay };

  SweepStore(Mode mode, std::string dir, ShardSpec shard,
             JsonValue manifest);

  /// Loads every shard log in the directory and returns the scan of the
  /// one named `own_log`, so the writer need not read it again.
  LogScan load_logs(std::string_view own_log);

  const Mode mode_;
  const std::string dir_;
  const ShardSpec shard_;
  JsonValue manifest_;
  std::unique_ptr<ShardLogWriter> writer_;  // shard mode only
  std::size_t loaded_ = 0;

  mutable std::mutex mu_;
  std::map<std::string, SimResult, std::less<>> results_;
  Counters counters_;
};

}  // namespace cvmt
