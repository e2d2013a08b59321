// The one worker pool: bounded admission, the idempotent drain, a worker
// surviving a throwing job, and each case of the for_each contract —
// indices taken in order on at most `workers` threads, a return only after
// every started call returned, the lowest failure rethrown with no index
// taken after it, and a nested loop run inline instead of deadlocking.
// The ThreadPool cases check it as a plain thread pool: it never has zero
// workers, every job handed to it runs, also when the pool is destroyed
// with jobs still queued, and results do not depend on the pool's size.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/worker_pool.hpp"

namespace cvmt {
namespace {

using namespace std::chrono_literals;
using Submit = WorkerPool::Submit;

TEST(WorkerPool, ZeroWorkersMeansOnePerCore) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.num_workers(),
            std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(WorkerPool::process().num_workers(), pool.num_workers());
  // Off the pools' threads, a batch runs on the process-wide pool.
  EXPECT_EQ(&WorkerPool::current(), &WorkerPool::process());
}

TEST(WorkerPool, TrySubmitReportsAcceptedFullAndClosed) {
  WorkerPool pool(1, /*capacity=*/1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  ASSERT_EQ(pool.try_submit([&](std::size_t, SimSession&) {
    started.set_value();
    released.wait();
  }),
            Submit::kAccepted);
  started.get_future().wait();  // job 1 holds the worker; nothing queued

  std::atomic<int> ran{0};
  const WorkerPool::Job count = [&](std::size_t, SimSession&) { ++ran; };
  EXPECT_EQ(pool.try_submit(count), Submit::kAccepted);  // fills the queue
  EXPECT_EQ(pool.try_submit(count), Submit::kFull);
  EXPECT_EQ(pool.queue_depth(), 1u);
  release.set_value();
  pool.drain();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(pool.try_submit(count), Submit::kClosed);
}

TEST(WorkerPool, DrainFromTwoThreadsRunsEveryAdmittedJobOnce) {
  WorkerPool pool(2);
  std::vector<std::atomic<int>> runs(500);
  for (std::size_t i = 0; i < runs.size(); ++i)
    ASSERT_EQ(pool.try_submit(
                  [&runs, i](std::size_t, SimSession&) { ++runs[i]; }),
              Submit::kAccepted);
  std::thread other([&pool] { pool.drain(); });
  pool.drain();
  other.join();
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(runs[i].load(), 1) << i;
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkerPool, ThrowingJobLeavesItsWorkerAlive) {
  WorkerPool pool(1);
  ASSERT_EQ(pool.try_submit([](std::size_t, SimSession&) {
    throw std::runtime_error("job failed");
  }),
            Submit::kAccepted);
  std::promise<void> ran;
  ASSERT_EQ(
      pool.try_submit([&](std::size_t, SimSession&) { ran.set_value(); }),
      Submit::kAccepted);
  EXPECT_EQ(ran.get_future().wait_for(10s), std::future_status::ready);
}

TEST(WorkerPool, ForEachCallsEachIndexOnceAtAnyWorkerCount) {
  WorkerPool pool(4);
  const auto run = [&pool](std::size_t workers) {
    std::vector<int> calls(200, 0);
    std::vector<std::size_t> out(200);
    pool.for_each(200, workers, [&](std::size_t i, SimSession&) {
      ++calls[i];
      out[i] = 3 * i + 1;
    });
    EXPECT_EQ(calls, std::vector<int>(200, 1)) << workers << " workers";
    return out;
  };
  const std::vector<std::size_t> one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(4));
}

/// The distinct threads that ran a for_each over `n` indices. Each call
/// waits (at most 5 s) until `together` calls have started, so a loop
/// that runs that many calls at once finishes at once, and one that runs
/// fewer shows in the count instead of hanging.
std::size_t threads_used(WorkerPool& pool, std::size_t n,
                         std::size_t workers, std::size_t together) {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t started = 0;
  std::set<std::thread::id> ids;
  pool.for_each(n, workers, [&](std::size_t, SimSession&) {
    std::unique_lock<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
    ++started;
    cv.notify_all();
    cv.wait_for(lock, 5s, [&] { return started >= together; });
  });
  return ids.size();
}

TEST(WorkerPool, ForEachTakesIndicesInOrderOnAtMostWorkersThreads) {
  WorkerPool pool(4);
  std::vector<std::size_t> order;
  pool.for_each(50, 1,
                [&](std::size_t i, SimSession&) { order.push_back(i); });
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);

  // At 4 threads a call may start before up to 3 earlier indices that
  // other threads took just before it, never later than that.
  std::mutex mu;
  order.clear();
  pool.for_each(400, 4, [&](std::size_t i, SimSession&) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 400u);
  for (std::size_t p = 0; p < order.size(); ++p)
    EXPECT_LE(order[p], p + 3) << p;

  EXPECT_EQ(threads_used(pool, 40, 1, 1), 1u);
  EXPECT_EQ(threads_used(pool, 40, 2, 2), 2u);
  EXPECT_EQ(threads_used(pool, 40, 0, 4), 4u);  // 0 = all of the pool's
  EXPECT_EQ(threads_used(pool, 2, 0, 2), 2u);   // never more than indices
  EXPECT_EQ(threads_used(pool, 40, 9, 4), 4u);  // never more than the pool
}

TEST(WorkerPool, ForEachReturnsOnlyAfterEveryStartedCallReturned) {
  WorkerPool pool(4);
  std::atomic<int> running{0};
  std::atomic<int> finished{0};
  pool.for_each(16, 0, [&](std::size_t, SimSession&) {
    ++running;
    std::this_thread::sleep_for(2ms);
    --running;
    ++finished;
  });
  EXPECT_EQ(running.load(), 0);
  EXPECT_EQ(finished.load(), 16);

  // Index 0 throws once indices 1-3 run on the other workers (or after
  // 5 s); those three still return before for_each does.
  std::atomic<int> started{0};
  finished = 0;
  const auto fail_first = [&](std::size_t i, SimSession&) {
    ++started;
    if (i == 0) {
      const auto deadline = std::chrono::steady_clock::now() + 5s;
      while (started.load() < 4 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      throw std::runtime_error("index 0");
    }
    std::this_thread::sleep_for(20ms);
    ++finished;
  };
  EXPECT_THROW(pool.for_each(16, 0, fail_first), std::runtime_error);
  EXPECT_GE(started.load(), 4);
  EXPECT_EQ(finished.load(), started.load() - 1);
}

TEST(WorkerPool, ForEachRethrowsTheLowestFailureAndTakesNoIndexAfterIt) {
  WorkerPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool seven_failed = false;
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> highest{0};
  // On two threads: the one that takes index 5 holds it until index 7 has
  // failed, so the other takes 6 and 7. Index 7 fails first, index 5
  // after it, and the thread that failed at 7 must take no index after.
  try {
    pool.for_each(1000, 2, [&](std::size_t i, SimSession&) {
      ++calls;
      std::size_t seen = highest.load();
      while (seen < i && !highest.compare_exchange_weak(seen, i)) {
      }
      if (i == 7) {
        {
          std::lock_guard<std::mutex> lock(mu);
          seven_failed = true;
        }
        cv.notify_all();
        throw std::runtime_error("index 7");
      }
      if (i == 5) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait_for(lock, 5s, [&] { return seven_failed; });
        throw std::runtime_error("index 5");
      }
    });
    ADD_FAILURE() << "for_each returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 5");
  }
  EXPECT_EQ(highest.load(), 7u);
  EXPECT_EQ(calls.load(), 8u);
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(calls.load(), 8u);  // nothing starts after it returned
}

TEST(WorkerPool, NestedForEachRunsInlineOnTheCallingWorker) {
  auto pool = std::make_unique<WorkerPool>(1);
  std::promise<void> finished;
  std::thread::id worker_thread;
  const SimSession* worker_session = nullptr;
  const WorkerPool* current = nullptr;
  std::vector<std::thread::id> threads(8);
  std::vector<const SimSession*> sessions(8, nullptr);
  ASSERT_EQ(pool->try_submit([&](std::size_t, SimSession& session) {
    worker_thread = std::this_thread::get_id();
    worker_session = &session;
    current = &WorkerPool::current();
    pool->for_each(8, 4, [&](std::size_t i, SimSession& s) {
      threads[i] = std::this_thread::get_id();
      sessions[i] = &s;
    });
    finished.set_value();
  }),
            Submit::kAccepted);
  if (finished.get_future().wait_for(10s) != std::future_status::ready) {
    // The only worker waits on itself: leak the pool, whose destructor
    // would join that worker and hang, and fail.
    (void)pool.release();
    FAIL() << "a for_each nested in a job of a 1-worker pool deadlocked";
  }
  EXPECT_EQ(current, pool.get());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    EXPECT_EQ(threads[i], worker_thread) << i;
    EXPECT_EQ(sessions[i], worker_session) << i;
  }
}

TEST(ThreadPool, HardwareWorkersAtLeastOne) {
  EXPECT_GE(WorkerPool::process().num_workers(), 1u);
}

TEST(ThreadPool, ZeroRequestedWorkersClampsToOne) {
  // Zero never means no thread: the pool and a for_each asked for zero
  // workers each run on at least one.
  WorkerPool pool(0);
  EXPECT_GE(pool.num_workers(), 1u);
  std::vector<int> out(4, 0);
  pool.for_each(out.size(), 0,
                [&out](std::size_t i, SimSession&) { out[i] = 42; });
  EXPECT_EQ(out, std::vector<int>(4, 42));
}

TEST(ThreadPool, SubmitReturnsResults) {
  std::vector<std::promise<std::size_t>> results(100);
  std::vector<std::future<std::size_t>> futures;
  for (auto& r : results) futures.push_back(r.get_future());
  WorkerPool pool(4);
  for (std::size_t i = 0; i < results.size(); ++i)
    ASSERT_EQ(pool.try_submit([&results, i](std::size_t, SimSession&) {
      results[i].set_value(i * i);
    }),
              Submit::kAccepted);
  for (std::size_t i = 0; i < futures.size(); ++i)
    EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, MoreTasksThanWorkersAllRun) {
  WorkerPool pool(2);
  std::atomic<int> count{0};
  pool.for_each(500, 0, [&count](std::size_t, SimSession&) { ++count; });
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, AwaitedTasksAllRunBeforeDestruction) {
  std::atomic<int> sum{0};
  {
    WorkerPool pool(1);
    // The first job holds the only worker, so destruction begins while
    // the other 49 are still queued.
    for (int i = 0; i < 50; ++i)
      ASSERT_EQ(pool.try_submit([&sum, i](std::size_t, SimSession&) {
        if (i == 0) std::this_thread::sleep_for(20ms);
        sum += i;
      }),
                Submit::kAccepted);
  }  // the destructor drains: every admitted job runs before the join
  EXPECT_EQ(sum.load(), 50 * 49 / 2);
}

TEST(ThreadPool, ResultsIndependentOfWorkerCount) {
  const auto run = [](std::size_t workers) {
    WorkerPool pool(workers);
    std::vector<std::size_t> out(64);
    pool.for_each(out.size(), 0,
                  [&out](std::size_t i, SimSession&) { out[i] = 3 * i + 1; });
    return out;
  };
  const std::vector<std::size_t> one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

}  // namespace
}  // namespace cvmt
