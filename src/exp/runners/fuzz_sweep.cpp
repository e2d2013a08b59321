// The deterministic differential-fuzz sweep as a registered experiment:
// 200 generated cases from seed 1 (the same sweep `cvmt fuzz` runs by
// default and PR CI executes), every case checked against the plan/tree,
// full/fast-stats, fast-forward/stepped and replay oracles. The result is
// bit-identical for any --workers value; ok = false on any mismatch, so
// the CI experiment-json job doubles as a fuzz gate.
#include "exp/runners/common.hpp"
#include "testgen/fuzz_driver.hpp"

namespace cvmt {
namespace {

ExperimentResult run(const RunContext& ctx) {
  FuzzOptions options;
  options.cases = 200;
  options.seed = 1;
  options.workers = ctx.params.cfg.batch.workers;
  const FuzzSweepResult sweep = run_fuzz_sweep(options);

  ExperimentResult result = runners::one_section(
      "Differential fuzz sweep (200 cases, seed 1)", sweep.summary(),
      sweep.failures == 0
          ? "\nEvery oracle passed.\n"
          : "\nORACLE FAILURES — run `cvmt fuzz --shrink "
            "--save=tests/corpus` for minimal repros.\n");
  if (sweep.failures > 0) {
    ResultSection failures;
    failures.title = "Oracle failures";
    failures.data = sweep.failure_table();
    result.sections.push_back(std::move(failures));
  }
  result.ok = sweep.failures == 0;
  return result;
}

const RegisterExperiment reg{{
    .id = "fuzz",
    .artifact = "validation",
    .description = "Deterministic 200-case differential fuzz of the "
                   "evaluator/stats/loop bit-identity contracts.",
    .schema = {ParamKind::kWorkers},
    .sort_key = 310,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
