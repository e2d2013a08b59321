#include "exp/runners/common.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace cvmt::runners {

const Workload& workload_by_name(std::string_view name) {
  for (const Workload& w : table2_workloads())
    if (w.ilp_combo == name) return w;
  CVMT_CHECK_MSG(false, "unknown workload: " + std::string(name));
  __builtin_unreachable();
}

std::vector<Workload> table2_rows(const std::vector<std::string>& filter) {
  std::vector<Workload> out;
  for (const Workload& w : table2_workloads()) {
    bool keep = filter.empty();
    for (const std::string& name : filter) keep = keep || w.ilp_combo == name;
    if (keep) out.push_back(w);
  }
  CVMT_CHECK_MSG(!out.empty(), "workload filter selected nothing");
  return out;
}

std::vector<double> average_ipc(std::span<const Scheme> schemes,
                                const SimConfig& sim,
                                const BatchOptions& batch) {
  const auto& wls = table2_workloads();
  std::vector<BatchJob> jobs;
  jobs.reserve(schemes.size() * wls.size());
  for (const Scheme& s : schemes)
    for (const Workload& w : wls) jobs.push_back(make_job(s, w, sim));
  return group_averages(run_batch_ipc(jobs, batch), wls.size());
}

Fig10Grid fig10_grid(const RunContext& ctx) {
  Fig10Grid g;
  g.workloads = table2_rows(ctx.params.workloads);
  if (ctx.params.schemes.empty()) g.schemes = Scheme::paper_schemes_4t();
  for (const std::string& name : ctx.params.schemes)
    g.schemes.push_back(Scheme::parse(name));

  // Job w*S+s is workload w under scheme s.
  std::vector<BatchJob> jobs;
  jobs.reserve(g.workloads.size() * g.schemes.size());
  for (const Workload& w : g.workloads)
    for (const Scheme& s : g.schemes)
      jobs.push_back(make_job(s, w, ctx.params.cfg.sim));
  g.ipc = run_batch_ipc(jobs, ctx.params.cfg.batch);

  for (std::size_t s = 0; s < g.schemes.size(); ++s) {
    double sum = 0.0;
    for (std::size_t w = 0; w < g.workloads.size(); ++w)
      sum += g.ipc[w * g.schemes.size() + s];
    g.average.push_back(sum / static_cast<double>(g.workloads.size()));
  }
  return g;
}

Dataset pareto_table(const RunContext& ctx,
                     bool (*less)(const SchemeCost&, const SchemeCost&)) {
  const Fig10Grid g = fig10_grid(ctx);
  std::vector<std::pair<std::size_t, SchemeCost>> points;
  for (std::size_t s = 0; s < g.schemes.size(); ++s)
    points.emplace_back(s,
                        scheme_cost(g.schemes[s], ctx.params.cfg.sim.machine));
  std::sort(points.begin(), points.end(), [less](const auto& a, const auto& b) {
    return less(a.second, b.second);
  });

  Dataset t({ColumnSpec::str("Scheme"), ColumnSpec::real("Avg IPC"),
             ColumnSpec::integer("Transistors", /*grouped=*/true),
             ColumnSpec::real("Gate delays", 1)});
  for (const auto& [s, cost] : points)
    t.add_row({g.schemes[s].name(), g.average[s], Cell{cost.transistors},
               cost.gate_delay});
  return t;
}

ExperimentResult one_section(std::string title, Dataset data,
                             std::string note, std::string preamble) {
  ResultSection s;
  s.title = std::move(title);
  s.preamble = std::move(preamble);
  s.data = std::move(data);
  s.note = std::move(note);
  ExperimentResult result;
  result.sections.push_back(std::move(s));
  return result;
}

std::vector<ParamKind> sim_schema() {
  return {ParamKind::kBudget, ParamKind::kTimeslice, ParamKind::kWorkers,
          ParamKind::kStats, ParamKind::kMachine};
}

bool partial_grid(const RunContext& ctx) {
  return ctx.params.cfg.batch.store != nullptr &&
         ctx.params.shard_count > 1;
}

}  // namespace cvmt::runners
