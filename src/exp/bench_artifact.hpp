// Report emission for the standalone wall-clock benches (the ones that
// are deliberately NOT registry experiments: their headline numbers are
// wall-clock ratios, so `cvmt run all` stays deterministic without them).
// The perf trajectory still wants them machine-readable and diffable, so
// this helper renders a BenchReport in the exact envelope shape the
// registry driver emits for experiments —
//
//   {"id", "artifact", "description", "ok", "params",
//    "sections": [{"title", "columns", "rows"}]}
//
// — which lets the CI structure diff treat BENCH_session_reuse.json and
// BENCH_serve.json with the same tooling as BENCH_cycle_loop.json.
// Wall-clock cells live in their own columns so a structure diff (titles
// and columns) is stable across machines while the values float.
//
// --out follows the driver's contract: probe the path up front, render
// into a buffer, and commit via temp-file + atomic rename, so a failed
// run never destroys the previous report.
#pragma once

#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "support/json.hpp"

namespace cvmt {

/// One standalone bench's report: the experiment-envelope fields plus the
/// sections to render. `params` carries the resolved knobs the bench ran
/// at (budget, reps, ...) — execution details such as lane or worker
/// counts are omitted by the same rule the driver applies.
struct BenchReport {
  std::string id;
  std::string artifact = "performance";
  std::string description;
  bool ok = true;
  JsonValue params = JsonValue::object();
  std::vector<ResultSection> sections;
};

/// The report as the registry-style JSON envelope.
[[nodiscard]] JsonValue bench_report_to_json(const BenchReport& report);

/// Renders `report` as an aligned table (format "table") or the JSON
/// envelope (format "json") to stdout, or to `out_path` when non-empty
/// (same bytes; atomic replace). Returns the process exit code: 1 when
/// the report itself is not ok, 2 on an unknown format or I/O failure,
/// else 0.
[[nodiscard]] int emit_bench_report(const BenchReport& report,
                                    const std::string& format,
                                    const std::string& out_path);

}  // namespace cvmt
