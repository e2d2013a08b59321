#include "exp/batch_runner.hpp"

#include <memory>
#include <string_view>
#include <unordered_map>

#include "sim/worker_pool.hpp"
#include "store/sweep_store.hpp"
#include "support/check.hpp"

namespace cvmt {
namespace {

SimResult simulate(const BatchJob& job, SimSession& session) {
  return session.run(job.scheme,
                     std::span<const std::string>(job.benchmarks), job.sim);
}

/// The decision-equivalent jobs of a batch (DESIGN.md §14): `first[i]` is
/// the index of the first job whose run is bit-identical to job i's up to
/// the scheme name and the merge-block stats — i itself for every job
/// that simulates. A later member i relabels with `plans[plan_of[i]]`.
struct DecisionGroups {
  std::vector<std::size_t> first;
  std::vector<std::size_t> plan_of;
  std::vector<std::shared_ptr<const MergePlan>> plans;
};

DecisionGroups group_decision_equivalent(std::span<const BatchJob> jobs) {
  constexpr std::size_t kNone = ~std::size_t{0};
  DecisionGroups g;
  g.first.resize(jobs.size());
  g.plan_of.assign(jobs.size(), kNone);
  // Each kFast job's plan, resolved once per distinct scheme x machine: a
  // batch repeats a few schemes over many workloads, and each cache
  // lookup builds a key string. kFull jobs are never grouped — their
  // per-block counters differ between equivalent trees (C4 has one
  // block, 3CCC three).
  std::vector<std::size_t> resolved_by;  // per plan: the job that resolved it
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    g.first[i] = i;
    const BatchJob& job = jobs[i];
    if (job.sim.stats != StatsLevel::kFast) continue;
    for (std::size_t p = 0; p < resolved_by.size(); ++p) {
      const BatchJob& seen = jobs[resolved_by[p]];
      if (seen.scheme == job.scheme && seen.sim.machine == job.sim.machine) {
        g.plan_of[i] = p;
        break;
      }
    }
    if (g.plan_of[i] != kNone) continue;
    g.plan_of[i] = g.plans.size();
    g.plans.push_back(
        ArtifactCache::global().scheme(job.scheme, job.sim.machine)->plan());
    resolved_by.push_back(i);
  }
  // Only a signature that two distinct schemes share can group jobs, so
  // only those jobs pay for a decision key.
  std::unordered_map<std::string_view, int> schemes_per_signature;
  for (const auto& plan : g.plans) ++schemes_per_signature[plan->signature()];
  std::unordered_map<std::string, std::size_t> firsts;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (g.plan_of[i] == kNone) continue;
    const std::string& signature = g.plans[g.plan_of[i]]->signature();
    if (schemes_per_signature[signature] < 2) continue;
    const auto [it, inserted] =
        firsts.emplace(decision_key(jobs[i], signature), i);
    if (inserted) continue;
    g.first[i] = it->second;
  }
  return g;
}

/// A later group member's result: its group's first result under its own
/// name and (zero-counter, kFast) merge-block stats — the only fields in
/// which decision-equivalent runs differ.
SimResult relabel(SimResult r, const BatchJob& job, const MergePlan& plan) {
  r.scheme = job.scheme.name();
  r.merge_nodes = plan.make_stats();
  return r;
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

std::vector<SimResult> run_batch(std::span<const BatchJob> jobs,
                                 const BatchOptions& opts) {
  std::vector<SimResult> results(jobs.size());
  SweepStore* const store = opts.store;
  // held[i]: results[i] is job i's real result, not a skipped point's
  // placeholder (char, not bool: pass-1 workers write distinct slots).
  std::vector<char> held(jobs.size(), 1);

  // No pre-build pass: the artifact cache serialises the build of any
  // missing program/scheme under its lock, so concurrent first requests
  // for one artifact block on a single build and then share it. The pool
  // is asked for first, so a fresh process's workers start while the
  // grouping runs.
  WorkerPool& pool = WorkerPool::current();
  const DecisionGroups groups = group_decision_equivalent(jobs);
  std::vector<std::size_t> firsts;
  std::vector<std::size_t> twins;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    (groups.first[i] == i ? firsts : twins).push_back(i);

  // Pass 1: every group's first job, exactly as without grouping.
  pool.for_each(firsts.size(), opts.workers,
                [&](std::size_t k, SimSession& session) {
                  const std::size_t i = firsts[k];
                  if (store == nullptr) {
                    results[i] = simulate(jobs[i], session);
                    return;
                  }
                  bool real = true;
                  results[i] = store->run_point(
                      jobs[i], [&] { return simulate(jobs[i], session); },
                      &real);
                  held[i] = real;
                });
  // Pass 2: the other members derive their result from their group's
  // first. A second pass rather than waiting on an in-flight first job: a
  // worker blocked on its twin would idle for a whole run. Without a
  // store every twin is a copy, cheaper inline than through the pool.
  const auto relabel_twin = [&](std::size_t i) {
    return relabel(results[groups.first[i]], jobs[i],
                   *groups.plans[groups.plan_of[i]]);
  };
  if (store == nullptr) {
    for (const std::size_t i : twins) results[i] = relabel_twin(i);
    return results;
  }
  // Through the store, each point is still logged, resumed or skipped on
  // its own key. A twin whose first job belongs to another shard (and is
  // not yet logged) simulates itself.
  pool.for_each(twins.size(), opts.workers,
                [&](std::size_t k, SimSession& session) {
                  const std::size_t i = twins[k];
                  results[i] = store->run_point(jobs[i], [&] {
                    return held[groups.first[i]] != 0
                               ? relabel_twin(i)
                               : simulate(jobs[i], session);
                  });
                });
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
