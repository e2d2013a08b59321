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

  /// Rewinds to the start of a fresh execution of `program` under
  /// `stream_seed`, bit-identical to constructing a new generator with the
  /// same arguments but reusing the per-loop cursor arrays. The session
  /// layer resets thread contexts across runs on this guarantee.
  void reset(std::shared_ptr<const SyntheticProgram> program,
             std::uint64_t stream_seed);

  /// Emits the next dynamic VLIW instruction. The reference stays valid
  /// until the next call. Never ends (programs loop forever); the caller
  /// decides the instruction budget.
  const Instruction& next();

  /// Hot-path variant of next(): advances the stream but materialises a
  /// patched copy only when the instruction has memory/branch ops. Read
  /// the result via current_instruction()/current_pc()/...; note that a
  /// patch-free current_instruction() aliases the program template, whose
  /// pc is unsalted — use current_pc() for the fetch address.
  void advance();

  /// The instruction advance() emitted (template or patched scratch).
  [[nodiscard]] const Instruction& current_instruction() const {
    return cur_is_scratch_ ? scratch_ : *cur_tmpl_;
  }
  /// Salted PC of the current instruction.
  [[nodiscard]] std::uint64_t current_pc() const { return cur_pc_; }

  /// Footprint of the most recently emitted instruction (cached template
  /// footprint; patches never change placement). Points into the shared
  /// immutable program — stable until the program itself goes away.
  [[nodiscard]] const Footprint& current_footprint() const;

  /// Patch list of the most recently emitted instruction: indices of its
  /// memory and branch operations, in op order. Lets the issue path visit
  /// only the timing-relevant ops. Same lifetime as current_footprint().
  [[nodiscard]] const SyntheticProgram::PatchList& current_patches() const {
    return *cur_patches_;
  }

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
  /// Shared tail of construction and reset(): seeds the RNG and salt,
  /// rewinds every cursor, and enters the first loop.
  void start_stream(std::uint64_t stream_seed);

  std::shared_ptr<const SyntheticProgram> program_;
  Xoshiro256 rng_;
  std::uint64_t address_salt_ = 0;

  std::size_t loop_idx_ = 0;
  std::uint64_t trips_left_ = 0;
  std::size_t body_pos_ = 0;

  /// Per-loop persistent walk state (streams continue across re-entries).
  /// The hot cursor is kept already reduced modulo the loop's hot window
  /// (with the stride pre-reduced too), so the per-access address needs a
  /// compare-subtract instead of a 64-bit modulo.
  std::vector<std::uint64_t> hot_cursor_;
  std::vector<std::uint64_t> hot_stride_mod_;
  std::vector<std::uint64_t> cold_cursor_;

  Instruction scratch_;
  /// Cached views of the current instruction. The template, footprint and
  /// patch-list pointers reach into program_ (immutable, shared), so
  /// generator copies — snapshots — keep them valid; whether the emitted
  /// instruction lives in scratch_ is a flag rather than a self-pointer
  /// for the same reason.
  const Footprint* cur_fp_ = nullptr;
  const SyntheticProgram::PatchList* cur_patches_ = nullptr;
  const Instruction* cur_tmpl_ = nullptr;
  bool cur_is_scratch_ = false;
  std::uint64_t cur_pc_ = 0;
  std::uint64_t emitted_ = 0;
};

}  // namespace cvmt
