// Calibration tests: simulated single-thread IPC of every synthetic
// benchmark must land on the paper's Table 1 targets (IPCr with the real
// 64KB/4-way/20-cycle memory system, IPCp with perfect memory).
#include <gtest/gtest.h>

#include "sim/session.hpp"

namespace cvmt {
namespace {

SimConfig calibration_config() {
  SimConfig cfg;
  cfg.instruction_budget = 150'000;
  cfg.timeslice_cycles = 1ULL << 40;  // single thread: no switching
  return cfg;
}

struct IpcPair {
  double real, perfect;
};

IpcPair simulate(const std::string& name) {
  const auto program =
      ArtifactCache::global().program(name, MachineConfig::vex4x4());
  const Scheme single = Scheme::single_thread();

  SimConfig real_cfg = calibration_config();
  SimConfig perfect_cfg = calibration_config();
  perfect_cfg.mem.perfect = true;

  return {run_simulation(single, {program}, real_cfg).ipc,
          run_simulation(single, {program}, perfect_cfg).ipc};
}

class CalibrationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CalibrationTest, SingleThreadIpcMatchesTable1) {
  const BenchmarkProfile& p = profile_by_name(GetParam());
  const IpcPair ipc = simulate(p.name);
  // 10% relative tolerance: the builder solves bubbles/miss mixes
  // analytically, and the remaining gap is warm-up and rounding.
  EXPECT_NEAR(ipc.perfect, p.target_ipc_perfect,
              0.10 * p.target_ipc_perfect)
      << p.name << " IPCp";
  EXPECT_NEAR(ipc.real, p.target_ipc_real, 0.10 * p.target_ipc_real)
      << p.name << " IPCr";
  // Perfect memory can only help.
  EXPECT_GE(ipc.perfect, ipc.real - 1e-9) << p.name;
}

INSTANTIATE_TEST_SUITE_P(
    Table1, CalibrationTest,
    ::testing::Values("mcf", "bzip2", "blowfish", "gsmencode", "g721encode",
                      "g721decode", "cjpeg", "djpeg", "imgpipe", "x264",
                      "idct", "colorspace"));

TEST(CalibrationRanking, IlpClassesAreOrdered) {
  // The L < M < H classification must be reflected in simulated IPCp.
  const double low = simulate("gsmencode").perfect;
  const double med = simulate("djpeg").perfect;
  const double high = simulate("idct").perfect;
  EXPECT_LT(low, med);
  EXPECT_LT(med, high);
}

TEST(CalibrationRanking, MemoryBoundBenchmarksLoseIpcWithRealMemory) {
  // colorspace: IPCr 5.47 vs IPCp 8.88 — the largest absolute gap.
  const IpcPair cs = simulate("colorspace");
  EXPECT_GT(cs.perfect - cs.real, 1.5);
  // gsmencode: no gap by construction.
  const IpcPair gsm = simulate("gsmencode");
  EXPECT_LT(gsm.perfect - gsm.real, 0.15);
}

}  // namespace
}  // namespace cvmt
