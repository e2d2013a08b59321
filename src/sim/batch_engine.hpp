// SimBatch: a queue of simulations run through the session path.
//
// This surface exists only for perfbench/probe.cpp, which the benchmark
// compiles on every run and which calls it on the sweep-fast grid. Every
// job runs one at a time, in enqueue order, through SimSession::run — the
// same path as every CLI command — so the results are bit-identical to it
// by construction. The next change to
// the benchmark can drop this file together with the probe's batch pass.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/session.hpp"
#include "support/check.hpp"

namespace cvmt {

/// One queued simulation: compiled scheme (its merge plan), materialized
/// programs, knobs. The machine of `config` must equal the plan's machine.
struct BatchRunSpec {
  std::shared_ptr<const MergePlan> scheme;
  std::shared_ptr<const std::vector<std::shared_ptr<const SyntheticProgram>>>
      shared_programs;
  SimConfig config;
};

/// Runs queued specs on one SimSession. Not thread-safe.
class SimBatch {
 public:
  /// `lanes` must be 1: jobs run one at a time.
  explicit SimBatch(int lanes) {
    CVMT_CHECK_MSG(lanes == 1, "SimBatch runs one job at a time (lanes 1)");
  }

  /// Queues one run. Invalid specs (no scheme, empty workload, machine
  /// mismatch, zero timeslice) are rejected here, before anything runs.
  void enqueue(BatchRunSpec spec) {
    CVMT_CHECK_MSG(spec.scheme != nullptr,
                   "batch job needs a compiled scheme");
    CVMT_CHECK_MSG(
        spec.shared_programs != nullptr && !spec.shared_programs->empty(),
        "empty workload");
    CVMT_CHECK_MSG(spec.config.machine == spec.scheme->machine(),
                   "SimConfig.machine must equal the compiled scheme's "
                   "machine");
    CVMT_CHECK_MSG(spec.config.timeslice_cycles >= 1,
                   "timeslice must be positive");
    jobs_.push_back(std::move(spec));
  }

  /// Runs every queued job and returns the results in enqueue order,
  /// leaving the queue empty.
  [[nodiscard]] std::vector<SimResult> run_all() {
    std::vector<SimResult> results;
    results.reserve(jobs_.size());
    for (const BatchRunSpec& spec : jobs_)
      results.push_back(session_.run(spec.scheme->scheme(),
                                     *spec.shared_programs, spec.config));
    kernel_stats_.generic_jobs += jobs_.size();
    jobs_.clear();
    return results;
  }

  /// Jobs run so far. Every job takes the session path, so the two
  /// kernel counters stay 0.
  struct KernelStats {
    std::uint64_t fused_jobs = 0;
    std::uint64_t structural_jobs = 0;
    std::uint64_t generic_jobs = 0;
  };
  [[nodiscard]] const KernelStats& kernel_stats() const {
    return kernel_stats_;
  }

 private:
  SimSession session_;
  std::vector<BatchRunSpec> jobs_;
  KernelStats kernel_stats_;
};

}  // namespace cvmt
