// Internal helpers shared by the experiment runner files in this
// directory. Not part of the experiment API surface.
#pragma once

#include <span>
#include <string_view>

#include "cost/scheme_cost.hpp"
#include "exp/registry.hpp"
#include "trace/benchmark_suite.hpp"

namespace cvmt::runners {

/// The Table 2 workload named `name`; throws CheckError when unknown.
[[nodiscard]] const Workload& workload_by_name(std::string_view name);

/// The Table 2 rows `filter` names (all nine when it is empty), in
/// Table 2 order; throws CheckError when the filter selects nothing.
[[nodiscard]] std::vector<Workload> table2_rows(
    const std::vector<std::string>& filter);

/// Runs every scheme on the nine Table 2 workloads in one scheme-major
/// batch (job s*9+w) and returns each scheme's average IPC.
[[nodiscard]] std::vector<double> average_ipc(std::span<const Scheme> schemes,
                                              const SimConfig& sim,
                                              const BatchOptions& batch);

/// The Fig 10 grid under the --schemes/--workloads filters (the paper's
/// 16 schemes and nine workloads when unfiltered), run as one
/// workload-major batch.
struct Fig10Grid {
  std::vector<Scheme> schemes;
  std::vector<Workload> workloads;
  std::vector<double> ipc;      ///< ipc[w*S+s]: workload w, scheme s
  std::vector<double> average;  ///< per scheme, over the workloads
};
[[nodiscard]] Fig10Grid fig10_grid(const RunContext& ctx);

/// The scatter of Figs 11 and 12: each scheme of the Fig 10 grid with its
/// average IPC and merge-control cost, sorted by cost with `less`.
[[nodiscard]] Dataset pareto_table(const RunContext& ctx,
                                   bool (*less)(const SchemeCost&,
                                                const SchemeCost&));

/// One-section result (the common single-table experiment shape).
[[nodiscard]] ExperimentResult one_section(std::string title, Dataset data,
                                           std::string note = {},
                                           std::string preamble = {});

/// The standard schema of a simulation-backed sweep: budget, timeslice,
/// workers, stats and machine shape.
[[nodiscard]] std::vector<ParamKind> sim_schema();

/// True when this run computes only one shard of its grid (`cvmt run
/// --shard k/n --store DIR` with n > 1): the other shards' points come
/// back default-constructed, so fold sections (averages, speedups,
/// headline relations) would divide by zeros. Runners skip those
/// sections under a partial grid; `cvmt merge` renders them from the
/// complete store. False for resumable single-shard runs and for merge
/// replay — both see every point.
[[nodiscard]] bool partial_grid(const RunContext& ctx);

}  // namespace cvmt::runners
