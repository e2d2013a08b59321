// Parallel batch experiment runner: fans independent (scheme, programs,
// SimConfig) jobs out across a worker pool. Results are bit-identical to
// running the same jobs serially in order, regardless of worker count or
// completion order, because no job shares mutable state with another:
// every job's randomness comes from seeds inside its own SimConfig,
// compiled artifacts (schemes, programs) come from the process-wide
// thread-safe ArtifactCache and are immutable once built, and each result
// is written to its own pre-allocated slot. Each worker thread runs its
// jobs through a private SimSession, so consecutive jobs on the same
// scheme reuse one SimInstance (reset in place) instead of rebuilding the
// simulator per grid point — the reuse is invisible in the results (the
// reset contract is bit-identity, pinned by sim_golden_test).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace cvmt {

class SweepStore;

/// One independent simulation job. `benchmarks` are Table 1 names, one
/// per software thread (a Table 2 workload row contributes its four).
struct BatchJob {
  Scheme scheme = Scheme::single_thread();
  std::vector<std::string> benchmarks;
  SimConfig sim;
};

/// Builds the job for one Table 2 workload row.
[[nodiscard]] BatchJob make_job(const Scheme& scheme,
                                const Workload& workload,
                                const SimConfig& sim);

struct BatchOptions {
  /// Worker threads. 0 resolves to the hardware concurrency. 1 runs the
  /// jobs inline on the calling thread (the serial reference path). The
  /// CVMT_WORKERS environment knob is applied by
  /// ExperimentConfig::from_env, not here.
  unsigned workers = 0;
  /// When set, every job is mediated by the on-disk result store
  /// (src/store/sweep_store.hpp): points outside the store's shard are
  /// skipped (their results default-constructed), already-stored points
  /// are served from the logs without simulating, and fresh results are
  /// appended before they return. Not owned; must outlive the run_batch
  /// call.
  SweepStore* store = nullptr;
};

/// The worker count `opts` resolves to for a batch of `num_jobs` jobs
/// (never more workers than jobs, never less than 1).
[[nodiscard]] unsigned resolve_workers(const BatchOptions& opts,
                                       std::size_t num_jobs);

/// Runs all jobs and returns their results in job order.
[[nodiscard]] std::vector<SimResult> run_batch(std::span<const BatchJob> jobs,
                                               const BatchOptions& opts = {});

/// Convenience: the IPC of each job, in job order.
[[nodiscard]] std::vector<double> run_batch_ipc(std::span<const BatchJob> jobs,
                                                const BatchOptions& opts = {});

/// Averages `values` into one mean per group of `group_size` consecutive
/// entries. Inverse of the flattening the experiment sweeps use (job
/// g*group_size + i belongs to group g), so a sweep's per-scheme averages
/// are `group_averages(run_batch_ipc(jobs), workloads.size())`.
[[nodiscard]] std::vector<double> group_averages(
    std::span<const double> values, std::size_t group_size);

}  // namespace cvmt
