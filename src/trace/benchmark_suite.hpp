// The paper's benchmark set (Table 1) and workload mixes (Table 2).
//
// Profile parameters are chosen so the synthetic programs land on the
// paper's IPCr/IPCp targets on the 4x4 VEX machine, with op mixes and
// working sets qualitatively matching each application's character
// (mcf pointer-chasing and memory-bound, colorspace wide and streaming,
// gsmencode fully cache-resident, ...).
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "trace/synthetic_program.hpp"

namespace cvmt {

/// The 12 benchmark profiles in Table 1 order.
[[nodiscard]] const std::vector<BenchmarkProfile>& table1_profiles();

/// Lookup by benchmark name; throws CheckError if unknown.
[[nodiscard]] const BenchmarkProfile& profile_by_name(std::string_view name);

/// One multiprogrammed workload (row of Table 2).
struct Workload {
  std::string ilp_combo;                  ///< e.g. "LLHH"
  std::array<std::string, 4> benchmarks;  ///< thread 0..3
};

/// The 9 workload configurations in Table 2 order.
[[nodiscard]] const std::vector<Workload>& table2_workloads();

}  // namespace cvmt
