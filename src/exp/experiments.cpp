#include "exp/experiments.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace cvmt {

std::vector<Table1Row> run_table1(const ExperimentConfig& cfg) {
  const auto& profiles = table1_profiles();
  const Scheme single = Scheme::single_thread();

  SimConfig real = cfg.sim;
  SimConfig perfect = cfg.sim;
  perfect.mem.perfect = true;

  // Jobs 2i / 2i+1: benchmark i with real / perfect memory.
  std::vector<BatchJob> jobs;
  jobs.reserve(profiles.size() * 2);
  for (const BenchmarkProfile& p : profiles) {
    jobs.push_back({single, {p.name}, real});
    jobs.push_back({single, {p.name}, perfect});
  }
  const std::vector<double> ipc = run_batch_ipc(jobs, cfg.batch);

  std::vector<Table1Row> rows(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const BenchmarkProfile& p = profiles[i];
    Table1Row& row = rows[i];
    row.name = p.name;
    row.ilp = to_char(p.ilp);
    row.paper_ipc_real = p.target_ipc_real;
    row.paper_ipc_perfect = p.target_ipc_perfect;
    row.sim_ipc_real = ipc[2 * i];
    row.sim_ipc_perfect = ipc[2 * i + 1];
  }
  return rows;
}

std::vector<Fig4Row> run_fig4(const ExperimentConfig& cfg) {
  const auto& workloads = table2_workloads();

  const Scheme configs[] = {Scheme::single_thread(), Scheme::parse("1S"),
                            Scheme::parse("3SSS")};
  const char* names[] = {"Single-thread", "2-Thread", "4-Thread"};

  // Job c*W+w: processor config c on workload w.
  std::vector<BatchJob> jobs;
  jobs.reserve(3 * workloads.size());
  for (const Scheme& config : configs)
    for (const Workload& w : workloads)
      jobs.push_back(make_job(config, w, cfg.sim));
  const std::vector<double> avg =
      group_averages(run_batch_ipc(jobs, cfg.batch), workloads.size());

  std::vector<Fig4Row> rows;
  for (std::size_t c = 0; c < 3; ++c) rows.push_back({names[c], avg[c]});
  return rows;
}

std::vector<Fig5Row> run_fig5(const MachineConfig& machine, int min_threads,
                              int max_threads) {
  CVMT_CHECK(min_threads >= 2 && max_threads >= min_threads);
  std::vector<Fig5Row> rows;
  for (int n = min_threads; n <= max_threads; ++n) {
    Fig5Row row;
    row.threads = n;
    row.csmt_serial = csmt_serial_control(n, machine);
    row.csmt_parallel = csmt_parallel_control(n, machine);
    row.smt = smt_serial_control(n, machine);
    rows.push_back(row);
  }
  return rows;
}

namespace {

/// The Table 2 rows selected by `filter` (empty = all), in Table 2 order.
std::vector<Workload> filtered_workloads(
    const std::vector<std::string>& filter) {
  std::vector<Workload> out;
  for (const Workload& w : table2_workloads()) {
    bool keep = filter.empty();
    for (const std::string& name : filter) keep = keep || w.ilp_combo == name;
    if (keep) out.push_back(w);
  }
  CVMT_CHECK_MSG(!out.empty(), "workload filter selected nothing");
  return out;
}

}  // namespace

std::vector<Fig6Row> run_fig6(const ExperimentConfig& cfg,
                              const std::vector<std::string>& filter) {
  const std::vector<Workload> workloads = filtered_workloads(filter);
  const Scheme smt = Scheme::parse("3SSS");
  const Scheme csmt = Scheme::parse("3CCC");

  // Jobs 2w / 2w+1: workload w under SMT / CSMT.
  std::vector<BatchJob> jobs;
  jobs.reserve(workloads.size() * 2);
  for (const Workload& w : workloads) {
    jobs.push_back(make_job(smt, w, cfg.sim));
    jobs.push_back(make_job(csmt, w, cfg.sim));
  }
  const std::vector<double> ipc = run_batch_ipc(jobs, cfg.batch);

  std::vector<Fig6Row> rows(workloads.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    Fig6Row& row = rows[w];
    row.workload = workloads[w].ilp_combo;
    row.smt_ipc = ipc[2 * w];
    row.csmt_ipc = ipc[2 * w + 1];
    row.advantage_pct = percent_diff(row.smt_ipc, row.csmt_ipc);
  }
  return rows;
}

std::vector<Fig9Row> run_fig9(const MachineConfig& machine) {
  std::vector<Fig9Row> rows;
  for (const Scheme& s : Scheme::paper_schemes_4t()) {
    const SchemeCost c = scheme_cost(s, machine);
    rows.push_back({s.name(), c.gate_delay, c.transistors});
  }
  return rows;
}

double Fig10Result::ipc_of(std::string_view scheme,
                           std::string_view workload) const {
  for (std::size_t w = 0; w < workloads.size(); ++w)
    if (workloads[w] == workload)
      for (std::size_t s = 0; s < schemes.size(); ++s)
        if (schemes[s] == scheme) return ipc[w][s];
  CVMT_CHECK_MSG(false, "unknown scheme/workload pair");
  __builtin_unreachable();
}

double Fig10Result::average_of(std::string_view scheme) const {
  for (std::size_t s = 0; s < schemes.size(); ++s)
    if (schemes[s] == scheme) return average[s];
  CVMT_CHECK_MSG(false, "unknown scheme: " + std::string(scheme));
  __builtin_unreachable();
}

Fig10Result run_fig10(const ExperimentConfig& cfg) {
  return run_fig10(cfg, {}, {});
}

Fig10Result run_fig10(const ExperimentConfig& cfg,
                      const std::vector<std::string>& scheme_filter,
                      const std::vector<std::string>& workload_filter) {
  const std::vector<Workload> workloads =
      filtered_workloads(workload_filter);
  std::vector<Scheme> schemes;
  if (scheme_filter.empty()) {
    schemes = Scheme::paper_schemes_4t();
  } else {
    for (const std::string& name : scheme_filter)
      schemes.push_back(Scheme::parse(name));
  }

  Fig10Result r;
  for (const Scheme& s : schemes) r.schemes.push_back(s.name());
  for (const Workload& w : workloads) r.workloads.push_back(w.ilp_combo);
  r.ipc.assign(workloads.size(),
               std::vector<double>(schemes.size(), 0.0));

  // Flatten the (workload, scheme) grid: job w*S+s is workload w under
  // scheme s.
  std::vector<BatchJob> jobs;
  jobs.reserve(workloads.size() * schemes.size());
  for (const Workload& w : workloads)
    for (const Scheme& s : schemes) jobs.push_back(make_job(s, w, cfg.sim));
  const std::vector<double> ipc = run_batch_ipc(jobs, cfg.batch);

  for (std::size_t w = 0; w < workloads.size(); ++w)
    for (std::size_t s = 0; s < schemes.size(); ++s)
      r.ipc[w][s] = ipc[w * schemes.size() + s];

  r.average.assign(schemes.size(), 0.0);
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    double sum = 0.0;
    for (std::size_t w = 0; w < workloads.size(); ++w) sum += r.ipc[w][s];
    r.average[s] = sum / static_cast<double>(workloads.size());
  }
  return r;
}

std::vector<ParetoPoint> pareto_points(const Fig10Result& fig10,
                                       const MachineConfig& machine) {
  std::vector<ParetoPoint> points;
  for (std::size_t s = 0; s < fig10.schemes.size(); ++s) {
    const Scheme scheme = Scheme::parse(fig10.schemes[s]);
    const SchemeCost c = scheme_cost(scheme, machine);
    points.push_back(
        {fig10.schemes[s], fig10.average[s], c.transistors, c.gate_delay});
  }
  return points;
}

HeadlineRelations headline_relations(const Fig10Result& f) {
  HeadlineRelations h;
  const double sc3 = f.average_of("2SC3");
  const double csmt = f.average_of("3CCC");
  const double smt2 = f.average_of("1S");
  const double smt4 = f.average_of("3SSS");
  h.sc3_vs_csmt_pct = percent_diff(sc3, csmt);
  h.sc3_vs_1s_pct = percent_diff(sc3, smt2);
  h.sc3_vs_smt4_pct = percent_diff(sc3, smt4);
  h.smt4_vs_1s_pct = percent_diff(smt4, smt2);
  return h;
}

}  // namespace cvmt
