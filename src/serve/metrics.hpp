// Server-side observability for `cvmt serve`: admission and completion
// counters, queue high-water, per-worker busy time, and request latency
// histograms — all snapshotted into the `stats` response.
//
// Latency histograms reuse the existing Histogram type with power-of-two
// microsecond buckets: bucket i counts requests with latency in
// [2^(i-1), 2^i) microseconds (bucket 0 is < 1us, the last bucket
// clamps). Percentiles reported from the histogram are bucket upper
// bounds — intentionally coarse; exact per-request latencies belong to
// the client side (cvmt client --load measures there).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/stats.hpp"

namespace cvmt {

/// Latency histogram over power-of-two microsecond buckets.
class LatencyHistogram {
 public:
  /// 22 buckets: <1us up to >=2^20us (~1s) with the last bucket clamping.
  static constexpr std::size_t kBuckets = 22;

  LatencyHistogram() : h_(kBuckets) {}

  void record_us(std::uint64_t us);

  [[nodiscard]] const Histogram& histogram() const { return h_; }
  /// Upper bound (us) of the bucket holding quantile `q` in [0,1];
  /// 0 when empty.
  [[nodiscard]] std::uint64_t quantile_upper_us(double q) const;

  /// {"count", "p50_us", "p90_us", "p99_us", "buckets": [...]} — buckets
  /// trailing-trimmed so quiet servers emit short arrays.
  [[nodiscard]] JsonValue to_json() const;

 private:
  Histogram h_;
};

/// One worker slot's lifetime accounting.
struct WorkerStat {
  std::uint64_t jobs = 0;
  std::uint64_t busy_us = 0;
};

/// All serve metrics behind one mutex. Contention is irrelevant at
/// request granularity (every touch is a handful of integer updates
/// bracketing a simulation run).
class ServeMetrics {
 public:
  explicit ServeMetrics(std::size_t workers) : workers_(workers) {}

  void on_received() { count(&received_); }
  void on_rejected_overload() { count(&rejected_overload_); }
  void on_rejected_draining() { count(&rejected_draining_); }
  void on_protocol_error() { count(&protocol_errors_); }
  void on_inline_served() { count(&inline_served_); }

  void on_queue_depth(std::size_t depth);

  /// Completion of one queued job on worker `worker`: total latency from
  /// admission to response written, and the execution slice of it.
  void on_job_done(std::size_t worker, std::string_view type,
                   bool ok, std::uint64_t latency_us,
                   std::uint64_t exec_us);

  /// Mean execution time of completed jobs (us); the backpressure
  /// retry-after estimate derives from this. 0 when nothing completed.
  [[nodiscard]] std::uint64_t mean_exec_us() const;

  /// The complete stats block of the `stats` response (everything except
  /// the fields only the server knows: queue capacity, cache counters,
  /// uptime — the caller merges those in).
  [[nodiscard]] JsonValue to_json() const;

 private:
  void count(std::uint64_t* c) {
    std::lock_guard<std::mutex> lock(mu_);
    ++*c;
  }

  mutable std::mutex mu_;
  std::uint64_t received_ = 0;
  std::uint64_t rejected_overload_ = 0;
  std::uint64_t rejected_draining_ = 0;
  std::uint64_t protocol_errors_ = 0;
  std::uint64_t inline_served_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t queue_high_water_ = 0;
  std::uint64_t exec_us_total_ = 0;
  std::vector<WorkerStat> workers_;
  LatencyHistogram latency_all_;
  LatencyHistogram latency_experiment_;
  LatencyHistogram latency_run_;
};

}  // namespace cvmt
