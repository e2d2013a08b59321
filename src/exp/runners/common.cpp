#include "exp/runners/common.hpp"

#include "support/check.hpp"

namespace cvmt::runners {

const Workload& workload_by_name(std::string_view name) {
  for (const Workload& w : table2_workloads())
    if (w.ilp_combo == name) return w;
  CVMT_CHECK_MSG(false, "unknown workload: " + std::string(name));
  __builtin_unreachable();
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
