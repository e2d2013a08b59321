// Resumable, deterministic dynamic instruction stream over a
// SyntheticProgram.
//
// One TraceGenerator is one software thread's execution: it walks loop
// entries (uniformly random loop, geometric trip count) with a cursor on
// the program's static instructions, and draws each instruction's
// per-execution data (memory addresses, mid-branch directions) when the
// instruction retires. It keeps its whole state in the object so the OS
// scheduler can deschedule/reschedule it at will. Copying the generator
// snapshots the execution — the simulator's determinism tests rely on
// this.
//
// The simulator reads the stream in two calls per instruction: fetch
// peeks at the step under the cursor, which draws nothing, and issue
// retires it, which draws its data in op order, hands each data address
// to a callback and moves the cursor. So the draws of one execution come
// in the same order whatever happens between fetch and issue: the data
// of instruction i, any loop-entry draws, then the data of instruction
// i + 1.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

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

  /// The static instruction under the cursor: the one retire() issues
  /// next. Reading it draws nothing. The reference points into the shared
  /// immutable program, so it outlives the cursor's moves.
  [[nodiscard]] const SyntheticProgram::Step& peek() const {
    return steps_[body_pos_];
  }

  /// PC of the instruction under the cursor in this execution's address
  /// space.
  [[nodiscard]] std::uint64_t peek_pc() const {
    return peek().pc + address_salt_;
  }

  /// Retires the instruction under the cursor: draws its per-execution
  /// data in op order, calls `on_address(addr)` for each memory op's data
  /// address, and moves the cursor, entering the next loop after a body's
  /// last instruction. Returns the taken branches as a mask over the
  /// instruction's patches (bit j: patch j is a taken branch), so it is
  /// nonzero exactly when a branch is taken.
  template <class OnAddress>
  std::uint32_t retire(OnAddress&& on_address);

  /// Emits the next dynamic VLIW instruction, fully patched (salted PC,
  /// data addresses, branch directions): peek() and retire() plus the
  /// instruction's templates. Never ends (programs loop forever); the
  /// caller decides the instruction budget.
  Instruction next();

  [[nodiscard]] std::uint64_t instructions_emitted() const {
    return emitted_;
  }

  /// The address-space offset this execution adds to every PC and data
  /// address (models separate address spaces in shared caches). Tools can
  /// subtract it to map addresses back to the program's regions.
  [[nodiscard]] std::uint64_t address_salt() const { return address_salt_; }

 private:
  void enter_next_loop();

  /// Cold streams advance one line per access (guaranteed compulsory
  /// miss) and wrap after 64MB — long evicted by then.
  static constexpr std::uint64_t kColdLineBytes = 64;
  static constexpr std::uint64_t kColdWrapBytes = 64ULL << 20;

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

  /// The cursor: loop program_->loops()[loop_idx_], its step array and a
  /// position in it, set by enter_next_loop(). The pointers reach into
  /// the shared immutable program, so generator copies keep them valid.
  std::size_t loop_idx_ = 0;
  const SyntheticProgram::Loop* loop_ = nullptr;
  const SyntheticProgram::Step* steps_ = nullptr;
  std::uint64_t trips_left_ = 0;
  std::size_t body_pos_ = 0;

  std::vector<LoopWalk> walks_;  ///< one per program loop
  std::uint64_t emitted_ = 0;
};

// Inline: the window loop retires one instruction per issue, and the
// callback (the DCache access) belongs inside the draw loop.
template <class OnAddress>
std::uint32_t TraceGenerator::retire(OnAddress&& on_address) {
  const SyntheticProgram::Loop& loop = *loop_;
  const SyntheticProgram::Step& step = steps_[body_pos_];
  // Only memory and branch ops (the step's patches) need per-execution
  // data, drawn in op order so the RNG stream is reproducible.
  LoopWalk& walk = walks_[loop_idx_];
  std::uint32_t taken = 0;
  for (unsigned j = 0; j < step.num_patches; ++j) {
    if ((step.mem_mask >> j) & 1u) {
      // The draw steers a branch on purpose: the cold stream is the rare
      // outcome (Table 1 loops miss at most 11% of their accesses), so
      // the branch predicts well, and forming both streams' addresses to
      // select one by mask measured slower.
      std::uint64_t addr = 0;
      if (rng_.next_bool(walk.miss)) {
        addr = loop.cold_base + address_salt_ + walk.cold_cursor;
        walk.cold_cursor =
            (walk.cold_cursor + kColdLineBytes) % kColdWrapBytes;
      } else {
        // The hot cursor stays in [0, hot_window): same addresses as the
        // raw-cursor modulo, without the division.
        addr = loop.hot_base + address_salt_ + walk.hot_cursor;
        walk.hot_cursor += walk.hot_stride;
        if (walk.hot_cursor >= loop.hot_window)
          walk.hot_cursor -= loop.hot_window;
      }
      on_address(addr);
    } else if (step.last || rng_.next_bool(mid_branch_taken_)) {
      // The loop-closing branch is always taken (back edge or exit
      // jump); mid-body branches resolve randomly.
      taken |= 1u << j;
    }
  }

  ++emitted_;
  if (step.last) {
    body_pos_ = 0;
    if (--trips_left_ == 0) enter_next_loop();
  } else {
    ++body_pos_;
  }
  return taken;
}

}  // namespace cvmt
