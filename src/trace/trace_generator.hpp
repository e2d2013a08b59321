// Resumable, deterministic dynamic instruction stream over a
// SyntheticProgram.
//
// One TraceGenerator is one software thread's execution: it walks loop
// entries (uniformly random loop, geometric trip count), emits the body
// templates with per-execution patches (memory addresses, mid-branch
// directions), and keeps its whole state in the object so the OS scheduler
// can deschedule/reschedule it at will. Copying the generator snapshots
// the execution — the simulator's determinism tests rely on this.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/footprint.hpp"
#include "support/rng.hpp"
#include "trace/synthetic_program.hpp"

namespace cvmt {

class TraceGenerator {
 public:
  /// `stream_seed` decorrelates this execution from other instances of the
  /// same program (it also derives the address-space salt that keeps
  /// different software threads from aliasing in shared caches).
  TraceGenerator(std::shared_ptr<const SyntheticProgram> program,
                 std::uint64_t stream_seed);

  /// Emits the next dynamic VLIW instruction, fully patched (salted PC,
  /// data addresses, branch directions). The reference stays valid until
  /// the next call. Never ends (programs loop forever); the caller
  /// decides the instruction budget.
  const Instruction& next();

  /// Hot-path variant of next(): advances the stream, drawing exactly the
  /// same random values, but never materialises the instruction — it
  /// reads the body's compact SyntheticProgram::Record and writes only
  /// the per-execution data (data addresses, branch directions) into a
  /// small buffer. Read the result via the current_*() accessors.
  void advance();

  /// Salted PC of the current instruction.
  [[nodiscard]] std::uint64_t current_pc() const { return cur_pc_; }

  /// Footprint of the most recently emitted instruction (cached template
  /// footprint; patches never change placement). Points into the shared
  /// immutable program — stable until the program itself goes away.
  [[nodiscard]] const Footprint& current_footprint() const { return *cur_fp_; }

  /// Operation count of the current instruction (0 for a bubble).
  [[nodiscard]] int current_op_count() const { return cur_op_count_; }

  /// Data addresses of the current instruction's memory ops, in op order.
  [[nodiscard]] const InlineVec<std::uint64_t, kMaxTotalOps>&
  current_addresses() const {
    return addrs_;
  }

  /// True when a branch of the current instruction is taken.
  [[nodiscard]] bool current_taken() const { return taken_mask_ != 0; }

  [[nodiscard]] std::uint64_t instructions_emitted() const {
    return emitted_;
  }
  [[nodiscard]] const SyntheticProgram& program() const { return *program_; }

  /// The address-space offset this execution adds to every PC and data
  /// address (models separate address spaces in shared caches). Tools can
  /// subtract it to map addresses back to the program's regions.
  [[nodiscard]] std::uint64_t address_salt() const { return address_salt_; }

 private:
  void enter_next_loop();

  /// Per-loop persistent walk state (streams continue across re-entries).
  /// The hot cursor is kept already reduced modulo the loop's hot window
  /// (with the stride pre-reduced too), so the per-access address needs a
  /// compare-subtract instead of a 64-bit modulo.
  struct LoopWalk {
    std::uint64_t hot_cursor = 0;
    std::uint64_t hot_stride = 0;  ///< profile stride mod hot_window
    std::uint64_t cold_cursor = 0;
    Bernoulli miss;  ///< the loop's miss_frac, compiled once per stream
  };

  std::shared_ptr<const SyntheticProgram> program_;
  Xoshiro256 rng_;
  std::uint64_t address_salt_ = 0;
  /// The profile's mid_branch_taken, compiled once per stream.
  Bernoulli mid_branch_taken_;

  std::size_t loop_idx_ = 0;
  /// program_->loops()[loop_idx_] and its record array, set by
  /// enter_next_loop(). They point into the shared immutable program, so
  /// generator copies keep them valid.
  const SyntheticProgram::Loop* loop_ = nullptr;
  const SyntheticProgram::Record* records_ = nullptr;
  std::uint64_t trips_left_ = 0;
  std::size_t body_pos_ = 0;

  std::vector<LoopWalk> walks_;  ///< one per program loop

  /// The current instruction. The footprint pointer reaches into program_
  /// (immutable, shared), so generator copies — snapshots — keep it
  /// valid; everything else is held by value.
  const Footprint* cur_fp_ = nullptr;
  std::uint64_t cur_pc_ = 0;
  int cur_op_count_ = 0;
  InlineVec<std::uint64_t, kMaxTotalOps> addrs_;
  /// Bit j: patch j of the current record is a taken branch.
  std::uint32_t taken_mask_ = 0;
  std::uint64_t emitted_ = 0;
  /// next()'s fully patched copy (never touched by advance()).
  Instruction scratch_;
};

}  // namespace cvmt
