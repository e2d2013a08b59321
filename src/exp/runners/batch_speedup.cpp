// Wall-clock validation of the batch experiment runner: runs the full
// Fig 10 grid (16 schemes x 9 Table 2 workloads = 144 independent jobs)
// serially (1 worker) and through the worker pool (--workers / CVMT_WORKERS
// or all cores), verifies the IPC tables are bit-identical, and reports
// the speedup. On an 8-core machine the parallel path is expected to be
// >= 3x faster; on a single core it degenerates to ~1x by construction.
// The experiment fails (ok = false) if the tables differ.
#include <chrono>
#include <string>

#include "exp/runners/common.hpp"
#include "support/string_util.hpp"
#include "support/thread_pool.hpp"

namespace cvmt {
namespace {

double timed_seconds(Fig10Result& out, const ExperimentConfig& cfg) {
  const auto start = std::chrono::steady_clock::now();
  out = run_fig10(cfg);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

ExperimentResult run(const RunContext& ctx) {
  ExperimentConfig serial_cfg = ctx.params.cfg;
  serial_cfg.batch.workers = 1;
  const ExperimentConfig& parallel_cfg = ctx.params.cfg;

  // Warm the process-wide artifact cache so neither timed run pays the
  // one-time program/scheme build cost (ArtifactCache::global() is keyed
  // per machine and shared by every batch worker).
  {
    SimConfig warm = serial_cfg.sim;
    warm.instruction_budget = 1'000;
    warm.timeslice_cycles = 1'000;
    const std::vector<BatchJob> jobs = {
        make_job(Scheme::single_thread(), table2_workloads().front(), warm)};
    (void)run_batch_ipc(jobs, serial_cfg.batch);
  }

  Fig10Result serial, parallel;
  const double serial_s = timed_seconds(serial, serial_cfg);
  const double parallel_s = timed_seconds(parallel, parallel_cfg);

  bool identical = serial.schemes == parallel.schemes &&
                   serial.workloads == parallel.workloads &&
                   serial.average == parallel.average;
  for (std::size_t w = 0; identical && w < serial.ipc.size(); ++w)
    identical = serial.ipc[w] == parallel.ipc[w];

  const unsigned workers =
      resolve_workers(parallel_cfg.batch,
                      serial.schemes.size() * serial.workloads.size());
  Dataset t({ColumnSpec::str("Path"), ColumnSpec::integer("Workers"),
             ColumnSpec::real("Wall-clock (s)"),
             ColumnSpec::real("Speedup", 2, "x")});
  t.add_row({std::string("serial"), Cell{std::int64_t{1}}, serial_s, 1.0});
  t.add_row({std::string("batch runner"),
             Cell{static_cast<std::int64_t>(workers)}, parallel_s,
             serial_s / parallel_s});

  ExperimentResult result = runners::one_section(
      "Batch runner: serial vs parallel Fig 10 grid", std::move(t),
      std::string("\nIPC tables bit-identical: ") +
          (identical ? "yes" : "NO") + " (hardware cores: " +
          std::to_string(ThreadPool::hardware_workers()) + ")\n");
  result.ok = identical;
  return result;
}

const RegisterExperiment reg{{
    .id = "batch-speedup",
    .artifact = "validation",
    .description = "Serial-vs-parallel batch runner bit-identity and "
                   "wall-clock speedup.",
    .schema = {ParamKind::kBudget, ParamKind::kTimeslice,
               ParamKind::kWorkers, ParamKind::kStats},
    .sort_key = 300,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
