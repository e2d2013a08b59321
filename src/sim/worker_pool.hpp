// The one worker pool behind every parallel loop in cvmt: the batch
// runner's grids, the fuzz sweep's cases and the serve daemon's requests.
// Each worker thread owns one SimSession for the pool's whole life, bound
// to the pool's shared ArtifactCache, so consecutive jobs on a worker
// reuse its SimInstances and every compiled artifact is built once.
//
// Two ways in:
//   - try_submit: non-blocking, bounded admission (accepted, full or
//     closed). Serve's connection readers use it, so a full queue becomes
//     an "overloaded" response instead of a stalled reader.
//   - for_each: a blocking loop over indices 0..n-1 spread over the
//     workers. run_batch and run_fuzz_sweep call it on process(), one
//     pool per process with one thread per core, built on first use.
//
// The inline rule: a for_each called on a worker thread of any pool runs
// every index on that worker's thread and session. A job that waited for
// other jobs of its own pool would deadlock once every worker waited; with
// the rule, a serve worker that runs an `experiment` request runs its
// batch itself and starts no threads.
//
// The shape follows clustermerge's MergeExecutor (SNIPPETS.md §3): long-
// lived workers, each with its own per-thread state, fed by one queue.
// Unlike it, drain() is explicit and idempotent, because serve must finish
// the drain before it closes client connections.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/session.hpp"

namespace cvmt {

class WorkerPool {
 public:
  /// A queued job: it receives the worker's index (for metrics) and the
  /// worker's own SimSession, which no other thread touches.
  using Job = std::function<void(std::size_t worker, SimSession& session)>;
  /// One step of a for_each: the index and the running worker's session.
  using IndexFn = std::function<void(std::size_t index, SimSession& session)>;

  enum class Submit : std::uint8_t {
    kAccepted,  ///< queued; the job runs, even across a drain
    kFull,      ///< the queue is at capacity; nothing happened
    kClosed,    ///< the pool is draining or drained; nothing happened
  };

  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  /// `workers` threads (0 = one per hardware core) over a queue of at
  /// most `capacity` (>= 1) try_submit jobs. Throws, with every thread
  /// it started joined, when a thread cannot start.
  explicit WorkerPool(std::size_t workers, std::size_t capacity = kUnbounded,
                      ArtifactCache& cache = ArtifactCache::global());
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  /// Drains: every admitted job runs before the threads are joined.
  ~WorkerPool();

  [[nodiscard]] Submit try_submit(Job job);

  /// Stops admission, runs every queued job, joins the workers. Safe to
  /// call from several threads: each returns once the drain is complete.
  void drain();

  /// Calls fn(i, session) for every i in [0, n), taking indices in order,
  /// on at most `workers` of the pool's threads (0 = all of them). Returns
  /// once every started call has returned. If calls threw, no further
  /// index is taken and the exception of the lowest failing index is
  /// rethrown. On a worker thread of any pool it runs inline (see above).
  void for_each(std::size_t n, std::size_t workers, const IndexFn& fn);

  /// The process-wide pool: one thread per core, built on first use.
  [[nodiscard]] static WorkerPool& process();
  /// The pool of the calling worker thread, or process() on any other
  /// thread.
  [[nodiscard]] static WorkerPool& current();

  [[nodiscard]] std::size_t num_workers() const { return threads_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  void worker_loop(std::size_t index);

  ArtifactCache& cache_;
  const std::size_t capacity_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<Job> queue_;
  bool closed_ = false;

  std::vector<std::thread> threads_;
  std::once_flag drain_once_;
};

}  // namespace cvmt
