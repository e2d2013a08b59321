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
//
// A built program keeps each static instruction once, as a compact image:
// per loop, one Step per instruction (exactly what fetch, the merge
// network and issue read) and the operations' placement packed into one
// array. The Instructions a loop is built from exist only while it is
// compiled; Loop::instruction(i) rebuilds one for tools and tests.
#pragma once

#include <cstdint>
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
  /// One static instruction as the window loop reads it. Its patches are
  /// the memory ops (which get a data address when the instruction
  /// issues) and the branches (which get a direction), in op order.
  struct Step {
    Footprint footprint;         ///< what the merge network sees
    std::uint64_t pc = 0;        ///< unsalted PC
    std::uint32_t mem_mask = 0;  ///< bit j: patch j is a memory op
                                 ///< (otherwise a branch)
    std::uint8_t op_count = 0;   ///< 0 = bubble
    std::uint8_t num_patches = 0;
    bool last = false;           ///< the loop-closing instruction
  };

  /// Where an operation sits and what it does. Data addresses and branch
  /// directions belong to an execution (TraceGenerator), not the program.
  struct OpTemplate {
    OpKind kind = OpKind::kAlu;
    std::uint8_t cluster = 0;
    std::uint8_t slot = 0;
  };

  /// One scheduled loop.
  struct Loop {
    std::vector<Step> steps;       ///< one per body instruction
    std::vector<OpTemplate> ops;   ///< every step's operations, in order
    /// ops[op_start[i] .. op_start[i] + steps[i].op_count) are step i's.
    std::vector<std::uint32_t> op_start;
    std::uint64_t code_base = 0;  ///< PC of the first instruction
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

    /// Body instruction `i` as a template: unsalted PC, placement and
    /// kinds, no data addresses, no branch taken.
    [[nodiscard]] Instruction instruction(std::size_t i) const;
  };

  /// A loop as the VEX-asm loader or a test writes it: the loop-level
  /// fields (code base, data regions, trips, miss fraction) and the body's
  /// instructions, each with its PC set. The image and the tallies are
  /// derived from the body; values the caller put there are ignored.
  struct LoopSource {
    Loop loop;
    std::vector<Instruction> body;
  };

  SyntheticProgram(BenchmarkProfile profile, MachineConfig machine);

  /// Constructs from hand-written loops (trace/vex_asm.hpp and tests).
  /// Every instruction is validated against the machine, since the text
  /// it came from is outside the program's control.
  SyntheticProgram(BenchmarkProfile profile, MachineConfig machine,
                   std::vector<LoopSource> loops);

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

static_assert(sizeof(SyntheticProgram::Step) <= 40,
              "the window loop reads one step per fetched instruction");

}  // namespace cvmt
