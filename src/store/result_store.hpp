// The on-disk result store behind sharded, resumable sweeps (DESIGN.md
// §12): completed grid points append to per-shard log files as
// length-prefixed, checksummed records, and a deterministic hash of each
// point's canonical key partitions the grid across shards.
//
// The log is crash-safe by construction, not by fsync discipline: a
// record is either entirely present with a matching checksum or it is
// the torn tail a SIGKILL left behind, and the tail is detected and
// truncated on the next open — never trusted, never repaired. Everything
// after the first bad record is discarded with it (log-structured
// semantics: the lost points simply recompute on resume).
//
// Keys reuse the session layer's canonical artifact keys
// (scheme_key; the workload and config serializations
// mirror sim/session.cpp), so a record written by one shard is
// recognised by any later run with the same logical inputs, regardless
// of process, worker count or lane count.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "exp/batch_runner.hpp"
#include "support/json.hpp"

namespace cvmt {

/// FNV-1a over `bytes`; the store's partitioning and checksum hash.
/// Stability matters: shard assignment and record checksums are on-disk
/// contracts, so this must never change.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// One shard of a partitioned sweep: this process computes the points
/// whose key hashes to `index` out of `count`.
struct ShardSpec {
  unsigned index = 0;
  unsigned count = 1;
};

/// The most shards one sweep may split into, for --shard and for a
/// store manifest's "shards" alike.
inline constexpr unsigned kMaxShards = 4096;

/// Parses the --shard argument "k/n" (k in [0, n), n in [1, kMaxShards]).
/// Throws CheckError on anything else — a malformed shard spec must not
/// silently become "the whole grid".
[[nodiscard]] ShardSpec parse_shard_spec(const std::string& spec);

/// The canonical key of one grid point: the scheme's scheme_key (name +
/// canonical tree + machine) plus the workload and the full
/// SimConfig, every double by bit pattern. Two BatchJobs collide on this
/// key only when the simulator contract guarantees bit-identical results.
[[nodiscard]] std::string point_key(const BatchJob& job);

/// The key under which run_batch groups decision-equivalent jobs: the
/// compiled plan's decision `signature` (MergePlan::signature) in place of
/// the scheme's name and tree, then the machine, workload and run
/// configuration exactly as point_key serializes them. Jobs with equal
/// decision keys simulate bit-identically except for the scheme name and
/// the merge-block stats. In memory only; never written to a store.
[[nodiscard]] std::string decision_key(const BatchJob& job,
                                       std::string_view signature);

/// The shard that owns `key` in an `count`-way partition.
[[nodiscard]] unsigned shard_of(std::string_view key, unsigned count);

/// SimResult <-> JSON, lossless: integers verbatim, doubles survive via
/// the JSON writer's shortest-round-trip formatting, the issued-per-cycle
/// histogram by its full internal state (Histogram::restored). A
/// from_json(to_json(r)) round trip reproduces `r` bit-for-bit, which is
/// what lets `cvmt merge` reproduce the unsharded output bytes.
[[nodiscard]] JsonValue sim_result_to_json(const SimResult& r);
[[nodiscard]] SimResult sim_result_from_json(const JsonValue& v);

/// Encodes one record: magic "CVS1", u32 payload length, u64 FNV-1a of
/// the payload (all little-endian), then the payload (compact JSON
/// {"key":..., "result":...}). `result` moves into the payload.
[[nodiscard]] std::string encode_record(const std::string& key,
                                        JsonValue result);

/// Outcome of scanning one shard log.
struct LogScan {
  std::uint64_t records = 0;     ///< intact records, each one visited
  std::uint64_t good_bytes = 0;  ///< file offset after the last one
  bool torn = false;             ///< trailing bytes were not a record
};

/// Receives one intact record of a scan. The key and the result live
/// only for the call; a throw ends the scan and leaves through scan_log.
using RecordVisitor =
    std::function<void(const std::string& key, const JsonValue& result)>;

/// Reads `path` front to back one record at a time, into one reused
/// buffer, and hands each intact record to `on_record`. The scan stops at
/// the first record that is short, misframed or fails its checksum, or
/// whose payload is not a JSON {"key", "result"} object (`torn` set,
/// `good_bytes` at the last intact boundary). A record's length is
/// checked against the bytes left in the file before anything is
/// allocated for it, so a torn header costs no memory. A missing file is
/// an empty, untorn log.
[[nodiscard]] LogScan scan_log(const std::string& path,
                               const RecordVisitor& on_record = {});

/// Append-only writer for one shard's log. On open, a tail torn by a
/// crash is truncated to the last intact record boundary, so it is
/// discarded before anything new lands after it. append() flushes per
/// record; callers serialise access (the SweepStore holds the lock).
class ShardLogWriter {
 public:
  /// Opens `path` with `scan`, the caller's scan_log of the same file.
  /// Throws CheckError naming the path when it cannot be truncated or
  /// opened.
  ShardLogWriter(std::string path, const LogScan& scan);

  void append(const std::string& key, JsonValue result);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::string record_;  ///< the record being appended, reused
};

/// The file name of shard `index` of `count`'s log.
[[nodiscard]] std::string shard_log_name(unsigned index, unsigned count);

/// The log file of shard `index` of `count` inside the store directory.
[[nodiscard]] std::string shard_log_path(const std::string& dir,
                                         unsigned index, unsigned count);

/// Every shard log currently in `dir`, sorted by filename so merge-order
/// is deterministic.
[[nodiscard]] std::vector<std::string> list_shard_logs(
    const std::string& dir);

/// Installs `manifest` as DIR/manifest.json (atomic tmp+rename), or — if
/// one already exists — verifies byte-for-byte agreement and throws
/// CheckError on mismatch: a store directory binds one experiment with
/// one parameter set, and mixing two sweeps in it must fail loudly, not
/// merge into nonsense. A directory that cannot be made or read (a path
/// through a regular file, say) throws CheckError naming the path and
/// the OS reason.
void write_or_check_manifest(const std::string& dir,
                             const JsonValue& manifest);

/// Reads DIR/manifest.json (CheckError when absent or malformed).
[[nodiscard]] JsonValue read_manifest(const std::string& dir);

}  // namespace cvmt
