#include "sim/worker_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>

#include "support/check.hpp"

namespace cvmt {
namespace {

/// Set on every pool worker thread for its whole life: the inline rule of
/// for_each and WorkerPool::current() read it.
struct CurrentWorker {
  WorkerPool* pool = nullptr;
  SimSession* session = nullptr;
};
thread_local CurrentWorker t_worker;

}  // namespace

WorkerPool::WorkerPool(std::size_t workers, std::size_t capacity,
                       ArtifactCache& cache)
    : cache_(cache), capacity_(capacity) {
  CVMT_CHECK_MSG(capacity >= 1, "a worker pool needs queue capacity >= 1");
  if (workers == 0)
    workers = std::max(1u, std::thread::hardware_concurrency());
  threads_.reserve(workers);
  try {
    for (std::size_t i = 0; i < workers; ++i)
      threads_.emplace_back(&WorkerPool::worker_loop, this, i);
  } catch (...) {
    drain();  // a joinable std::thread must not be destroyed
    throw;
  }
}

WorkerPool::~WorkerPool() { drain(); }

WorkerPool& WorkerPool::process() {
  static WorkerPool pool(0);
  return pool;
}

WorkerPool& WorkerPool::current() {
  return t_worker.pool != nullptr ? *t_worker.pool : process();
}

WorkerPool::Submit WorkerPool::try_submit(Job job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Submit::kClosed;
    if (queue_.size() >= capacity_) return Submit::kFull;
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
  return Submit::kAccepted;
}

std::size_t WorkerPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void WorkerPool::drain() {
  // The first caller drains; concurrent callers block on the once-flag
  // until it is done, so for every caller a returned drain() means "queue
  // empty, workers joined".
  std::call_once(drain_once_, [this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  });
}

void WorkerPool::for_each(std::size_t n, std::size_t workers,
                          const IndexFn& fn) {
  if (t_worker.session != nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i, *t_worker.session);
    return;
  }
  const std::size_t size = threads_.size();
  const std::size_t runners =
      std::min({n, size, workers == 0 ? size : workers});
  if (runners == 0) return;

  // The loop's state lives on this stack frame, which outlives every
  // runner: the caller returns only once `running` is back to 0.
  std::mutex mu;
  std::condition_variable done;
  std::size_t next = 0;
  std::size_t running = runners;
  std::size_t failed = n;  // the lowest failing index so far
  std::exception_ptr failure;
  const Job runner = [&](std::size_t, SimSession& session) {
    for (;;) {
      std::size_t i = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (failure != nullptr || next == n) break;
        i = next++;
      }
      try {
        fn(i, session);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (i < failed) {
          failed = i;
          failure = std::current_exception();
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    if (--running == 0) done.notify_one();
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    CVMT_CHECK_MSG(!closed_, "for_each on a drained worker pool");
    queue_.insert(queue_.end(), runners, runner);
  }
  for (std::size_t r = 0; r < runners; ++r) work_cv_.notify_one();
  std::unique_lock<std::mutex> lock(mu);
  done.wait(lock, [&] { return running == 0; });
  if (failure != nullptr) std::rethrow_exception(failure);
}

void WorkerPool::worker_loop(std::size_t index) {
  SimSession session(cache_);
  t_worker = {this, &session};
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      job(index, session);
    } catch (const std::exception& e) {
      // Jobs report their own failures (serve answers "internal",
      // for_each hands the exception to its caller); this keeps the
      // worker alive whatever escapes.
      std::fprintf(stderr, "cvmt: worker %zu: uncaught: %s\n", index,
                   e.what());
    }
  }
}

}  // namespace cvmt
