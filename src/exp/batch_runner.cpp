#include "exp/batch_runner.hpp"

#include <future>

#include "sim/session.hpp"
#include "store/sweep_store.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace cvmt {
namespace {

/// The calling thread's simulation session. Programs and compiled schemes
/// come from the process-wide ArtifactCache (thread-safe, shared across
/// batches and machines); the session's SimInstances are this thread's
/// reusable run state. thread_local scoping means pool workers — which
/// live for one batch — drop their sessions with the pool, while the
/// inline workers<=1 path keeps one (bounded) session warm on the calling
/// thread across batches.
SimSession& session_for_this_thread() {
  thread_local SimSession session;
  return session;
}

SimResult run_one(const BatchJob& job, SimSession& session,
                  SweepStore* store) {
  if (store != nullptr)
    return store->run_point(job, [&job, &session] {
      return session.run(job.scheme,
                         std::span<const std::string>(job.benchmarks),
                         job.sim);
    });
  return session.run(job.scheme,
                     std::span<const std::string>(job.benchmarks), job.sim);
}

}  // namespace

BatchJob make_job(const Scheme& scheme, const Workload& workload,
                  const SimConfig& sim) {
  BatchJob job;
  job.scheme = scheme;
  job.benchmarks.assign(workload.benchmarks.begin(),
                        workload.benchmarks.end());
  job.sim = sim;
  return job;
}

unsigned resolve_workers(const BatchOptions& opts, std::size_t num_jobs) {
  if (num_jobs == 0) return 1;
  unsigned workers = opts.workers;
  if (workers == 0) workers = ThreadPool::hardware_workers();
  if (num_jobs < workers) workers = static_cast<unsigned>(num_jobs);
  return workers == 0 ? 1u : workers;
}

std::vector<SimResult> run_batch(std::span<const BatchJob> jobs,
                                 const BatchOptions& opts) {
  std::vector<SimResult> results(jobs.size());
  const unsigned workers = resolve_workers(opts, jobs.size());
  if (workers <= 1) {
    SimSession& session = session_for_this_thread();
    for (std::size_t i = 0; i < jobs.size(); ++i)
      results[i] = run_one(jobs[i], session, opts.store);
    return results;
  }

  // No pre-build pass: the artifact cache serialises the build of any
  // missing program/scheme under its lock, so concurrent first requests
  // for one artifact block on a single build and then share it.
  ThreadPool pool(workers);
  std::vector<std::future<void>> pending;
  pending.reserve(jobs.size());
  SweepStore* const store = opts.store;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    pending.push_back(pool.submit([&jobs, &results, store, i] {
      results[i] = run_one(jobs[i], session_for_this_thread(), store);
    }));
  for (auto& f : pending) f.get();  // rethrows the first job failure
  return results;
}

std::vector<double> run_batch_ipc(std::span<const BatchJob> jobs,
                                  const BatchOptions& opts) {
  const std::vector<SimResult> results = run_batch(jobs, opts);
  std::vector<double> ipc;
  ipc.reserve(results.size());
  for (const SimResult& r : results) ipc.push_back(r.ipc);
  return ipc;
}

std::vector<double> group_averages(std::span<const double> values,
                                   std::size_t group_size) {
  CVMT_CHECK_MSG(group_size > 0 && values.size() % group_size == 0,
                 "values must hold whole groups");
  std::vector<double> averages(values.size() / group_size, 0.0);
  for (std::size_t g = 0; g < averages.size(); ++g) {
    double sum = 0.0;
    for (std::size_t i = 0; i < group_size; ++i)
      sum += values[g * group_size + i];
    averages[g] = sum / static_cast<double>(group_size);
  }
  return averages;
}

}  // namespace cvmt
