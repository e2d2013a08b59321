// Sensitivity of the scheme trade-off to the memory system: the paper
// fixes a 20-cycle miss penalty (400MHz, 50ns DRAM). Sweeping the penalty
// shows why multithreading pays: longer memory stalls widen every
// multithreaded scheme's lead over 1S, while the 2SC3-vs-3CCC gap — a
// property of the merge networks, not the memory — barely moves.
//
// Note: the Table 1 IPCr calibration assumes 20 cycles, so absolute IPCs
// at other penalties are not paper numbers; the relations are the point.
#include "exp/runners/common.hpp"
#include "support/string_util.hpp"

namespace cvmt {
namespace {

ExperimentResult run(const RunContext& ctx) {
  const ExperimentConfig& cfg = ctx.params.cfg;

  Dataset t({ColumnSpec::integer("Miss penalty"), ColumnSpec::real("1S"),
             ColumnSpec::real("3CCC"), ColumnSpec::real("2SC3"),
             ColumnSpec::real("3SSS"),
             ColumnSpec::real("2SC3 vs 3CCC", 1, "%"),
             ColumnSpec::real("3SSS vs 1S", 1, "%")});
  const Scheme schemes[] = {Scheme::parse("1S"), Scheme::parse("3CCC"),
                            Scheme::parse("2SC3"), Scheme::parse("3SSS")};
  for (int penalty : {5, 10, 20, 40, 80}) {
    SimConfig sim = cfg.sim;
    sim.mem.icache.miss_penalty = penalty;
    sim.mem.dcache.miss_penalty = penalty;
    // One batch per penalty: every scheme on every workload.
    const std::vector<double> avg =
        runners::average_ipc(schemes, sim, cfg.batch);
    const double s1 = avg[0], ccc = avg[1], sc3 = avg[2], sss = avg[3];
    t.add_row({Cell{static_cast<std::int64_t>(penalty)}, s1, ccc, sc3, sss,
               percent_diff(sc3, ccc), percent_diff(sss, s1)});
  }
  return runners::one_section("Sensitivity: DCache/ICache miss penalty",
                              std::move(t));
}

const RegisterExperiment reg{{
    .id = "miss-penalty",
    .artifact = "extension",
    .description = "Scheme relations across a 5..80-cycle cache miss "
                   "penalty sweep.",
    .schema = runners::sim_schema(),
    .sort_key = 240,
    .run = run,
}};

}  // namespace
}  // namespace cvmt
