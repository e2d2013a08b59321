#include "serve/metrics.hpp"

#include <bit>

#include "support/check.hpp"

namespace cvmt {

void LatencyHistogram::record_us(std::uint64_t us) {
  const std::size_t bucket = static_cast<std::size_t>(
      std::bit_width(us));  // 0 -> 0, 1 -> 1, [2,4) -> 2, ...
  h_.add(bucket < kBuckets ? bucket : kBuckets - 1);
}

std::uint64_t LatencyHistogram::quantile_upper_us(double q) const {
  const std::uint64_t total = h_.total();
  if (total == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total) + 0.5);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h_.num_buckets(); ++i) {
    cum += h_.bucket(i);
    if (cum >= target && cum > 0)
      return i == 0 ? 1 : (std::uint64_t{1} << i);
  }
  return std::uint64_t{1} << (kBuckets - 1);
}

JsonValue LatencyHistogram::to_json() const {
  JsonValue out = JsonValue::object();
  out.set("count", h_.total());
  out.set("p50_us", quantile_upper_us(0.50));
  out.set("p90_us", quantile_upper_us(0.90));
  out.set("p99_us", quantile_upper_us(0.99));
  std::size_t last = 0;
  for (std::size_t i = 0; i < h_.num_buckets(); ++i)
    if (h_.bucket(i) != 0) last = i + 1;
  JsonValue buckets = JsonValue::array();
  for (std::size_t i = 0; i < last; ++i) buckets.push_back(h_.bucket(i));
  out.set("buckets", std::move(buckets));
  return out;
}

void ServeMetrics::on_queue_depth(std::size_t depth) {
  std::lock_guard<std::mutex> lock(mu_);
  if (depth > queue_high_water_) queue_high_water_ = depth;
}

void ServeMetrics::on_job_done(std::size_t worker, std::string_view type,
                               bool ok, std::uint64_t latency_us,
                               std::uint64_t exec_us) {
  std::lock_guard<std::mutex> lock(mu_);
  ++completed_;
  if (!ok) ++failed_;
  exec_us_total_ += exec_us;
  CVMT_CHECK(worker < workers_.size());
  ++workers_[worker].jobs;
  workers_[worker].busy_us += exec_us;
  latency_all_.record_us(latency_us);
  if (type == "experiment") latency_experiment_.record_us(latency_us);
  if (type == "run") latency_run_.record_us(latency_us);
}

std::uint64_t ServeMetrics::mean_exec_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_ ? exec_us_total_ / completed_ : 0;
}

JsonValue ServeMetrics::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonValue out = JsonValue::object();

  JsonValue requests = JsonValue::object();
  requests.set("received", received_);
  requests.set("completed", completed_);
  requests.set("failed", failed_);
  requests.set("inline_served", inline_served_);
  requests.set("rejected_overload", rejected_overload_);
  requests.set("rejected_draining", rejected_draining_);
  requests.set("protocol_errors", protocol_errors_);
  out.set("requests", std::move(requests));

  out.set("queue_high_water", queue_high_water_);

  JsonValue workers = JsonValue::array();
  for (const WorkerStat& w : workers_) {
    JsonValue ws = JsonValue::object();
    ws.set("jobs", w.jobs);
    ws.set("busy_us", w.busy_us);
    workers.push_back(std::move(ws));
  }
  out.set("workers", std::move(workers));

  JsonValue latency = JsonValue::object();
  latency.set("all", latency_all_.to_json());
  latency.set("experiment", latency_experiment_.to_json());
  latency.set("run", latency_run_.to_json());
  out.set("latency", std::move(latency));
  return out;
}

}  // namespace cvmt
