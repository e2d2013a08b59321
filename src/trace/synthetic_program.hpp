// The "compiled binary" of a synthetic benchmark: a pool of scheduled loop
// bodies with concrete operation placement, bubble (empty) instructions and
// address-stream descriptors. Deterministic given (profile, machine).
//
// Construction mirrors what the VEX compiler's trace scheduler produces:
//  * each loop body is a fixed sequence of VLIW instructions whose
//    operations are packed into a window of clusters starting at a
//    per-loop "home" cluster (Bottom-Up-Greedy keeps loops in few
//    clusters; different loops land in different homes, which is what
//    gives CSMT its disjoint-footprint opportunities);
//  * scheduled stalls appear as explicit empty instructions (vertical
//    waste), sized so the loop's perfect-memory IPC hits the Table 1
//    IPCp target;
//  * every loop ends in a (taken) backward branch;
//  * the fraction of memory operations routed to an always-miss streaming
//    region is solved from the IPCr target.
#pragma once

#include <memory>
#include <vector>

#include "isa/footprint.hpp"
#include "isa/instruction.hpp"
#include "isa/machine_config.hpp"
#include "trace/benchmark_profile.hpp"

namespace cvmt {

/// An immutable synthetic program. Share between generators/threads via
/// shared_ptr (it is read-only after construction).
class SyntheticProgram {
 public:
  /// What the trace generator's hot path needs of one body instruction,
  /// in 16 bytes instead of the instruction's full template. Its patches
  /// are the memory ops (which get a data address at emission) and the
  /// branches (which get a direction), in op order.
  struct Record {
    std::uint64_t pc = 0;        ///< unsalted PC of the template
    std::uint32_t mem_mask = 0;  ///< bit j: patch j is a memory op
                                 ///< (otherwise a branch)
    std::uint8_t op_count = 0;   ///< 0 = bubble
    std::uint8_t num_patches = 0;
    bool last = false;           ///< the loop-closing instruction
  };

  /// One scheduled loop.
  struct Loop {
    std::vector<Instruction> body;      ///< templates; empty = bubble
    std::vector<Footprint> footprints;  ///< cached per body instruction
    std::vector<Record> records;        ///< cached per body instruction
    std::uint64_t code_base = 0;  ///< PC of body[0]
    std::uint64_t hot_base = 0;   ///< cache-resident data region base
    std::uint64_t hot_window = 0;
    std::uint64_t cold_base = 0;  ///< streaming always-miss region base
    double miss_frac = 0.0;  ///< P(memory op goes to the cold stream)
    double mean_trips = 1.0;
    int real_instrs = 0;  ///< non-bubble instruction count
    std::int64_t total_ops = 0;
    std::int64_t mem_ops = 0;
    /// Expected cycles per iteration under perfect memory: instructions +
    /// bubbles + branch squash penalties.
    double expected_cycles_perfect = 0.0;
  };

  SyntheticProgram(BenchmarkProfile profile, MachineConfig machine);

  /// Constructs directly from pre-built loops. Used by the VEX-asm loader
  /// (trace/vex_asm.hpp) and by tests that need hand-crafted programs.
  /// Derived per-loop fields (footprints, records, op totals, expected
  /// cycles) are recomputed from the bodies; caller-provided values are
  /// ignored.
  SyntheticProgram(BenchmarkProfile profile, MachineConfig machine,
                   std::vector<Loop> loops);

  [[nodiscard]] const BenchmarkProfile& profile() const { return profile_; }
  [[nodiscard]] const MachineConfig& machine() const { return machine_; }
  [[nodiscard]] const std::vector<Loop>& loops() const { return loops_; }

  /// Analytic single-thread IPC expectations implied by the built loops
  /// (trip-count weighted). Tests compare simulation output against these
  /// and against the Table 1 targets.
  [[nodiscard]] double expected_ipc_perfect() const;
  [[nodiscard]] double expected_ipc_real() const;

 private:
  BenchmarkProfile profile_;
  MachineConfig machine_;
  std::vector<Loop> loops_;
};

}  // namespace cvmt
