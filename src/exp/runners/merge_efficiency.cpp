// Merge-efficiency diagnostics: for each scheme, how many threads issue
// per cycle and where the merge checks fail. This is the mechanism view
// behind Fig 10 — e.g. why 2SC3 recovers most of 3SSS: its single SMT
// block accepts nearly every pair, and the CSMT levels only have to catch
// the leftovers. Forces StatsLevel::kFull regardless of --stats: the
// whole point is reading per-block reject counters.
#include "exp/runners/common.hpp"
#include "support/string_util.hpp"

namespace cvmt {
namespace {

/// One workload's table: `results[s]` is the run of `schemes[s]`.
Dataset efficiency_table(const std::vector<std::string>& schemes,
                         std::span<const SimResult> results) {
  // Histogram buckets past a scheme's thread count do not exist; those
  // cells are null and render as "-".
  const auto bucket = [](const char* name) {
    ColumnSpec c = ColumnSpec::real(name, 1);
    c.null_text = "-";
    return c;
  };
  Dataset t({ColumnSpec::str("Scheme"), ColumnSpec::real("IPC"),
             ColumnSpec::real("avg issued"), bucket("0 thr %"),
             bucket("1 thr %"), bucket("2 thr %"), bucket("3 thr %"),
             bucket("4 thr %"), ColumnSpec::str("reject % per block")});
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    const SimResult& r = results[s];
    std::vector<Cell> row{schemes[s], r.ipc, r.issued_per_cycle.mean()};
    for (std::size_t k = 0; k <= 4; ++k) {
      if (k < r.issued_per_cycle.num_buckets())
        row.emplace_back(100.0 * r.issued_per_cycle.fraction(k));
      else
        row.emplace_back(std::monostate{});
    }
    std::string rejects;
    for (const auto& n : r.merge_nodes) {
      if (!rejects.empty()) rejects += " ";
      rejects += n.label + ":" + format_fixed(100.0 * n.reject_rate(), 0);
    }
    row.emplace_back(std::move(rejects));
    t.add_row(std::move(row));
  }
  return t;
}

ExperimentResult run(const RunContext& ctx) {
  ExperimentConfig cfg = ctx.params.cfg;
  // This diagnostic reads per-block reject rates and the issued histogram,
  // so it needs full merge statistics regardless of the resolved level.
  cfg.sim.stats = StatsLevel::kFull;

  std::vector<std::string> workloads = ctx.params.workloads;
  if (workloads.empty()) workloads = {"LMHH"};

  std::vector<std::string> schemes = ctx.params.schemes;
  if (schemes.empty())
    schemes = {"1S", "3CCC", "2CC", "2SC3", "2CS", "2SC", "3SSC", "3SSS"};

  // Job w*S+s is workload w under scheme s. Full-stats jobs never group,
  // so each runs on its own and goes through the store like any grid.
  std::vector<BatchJob> jobs;
  jobs.reserve(workloads.size() * schemes.size());
  for (const std::string& workload_name : workloads) {
    const Workload& wl = runners::workload_by_name(workload_name);
    for (const std::string& name : schemes)
      jobs.push_back(make_job(Scheme::parse(name), wl, cfg.sim));
  }
  const std::vector<SimResult> results = run_batch(jobs, cfg.batch);

  ExperimentResult result;
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    ResultSection s;
    s.title = "Merge efficiency per scheme (workload " + workloads[w] + ")";
    s.data = efficiency_table(
        schemes, std::span<const SimResult>(results).subspan(
                     w * schemes.size(), schemes.size()));
    result.sections.push_back(std::move(s));
  }
  result.sections.back().note =
      "\nReading: S blocks reject far less often than C blocks;\n"
      "one early S block (2SC3) lifts the issued-threads mass\n"
      "from 1-2 (3CCC) towards 2-3 without 3SSS's hardware.\n";
  return result;
}

const RegisterExperiment reg{{
    .id = "merge-efficiency",
    .artifact = "extension",
    .description = "Per-scheme issued-threads histogram and per-block "
                   "reject rates.",
    .schema = {ParamKind::kBudget, ParamKind::kTimeslice, ParamKind::kWorkers,
               ParamKind::kStats, ParamKind::kMachine, ParamKind::kSchemes,
               ParamKind::kWorkloads},
    .forces_full_stats = true,
    .sort_key = 260,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
