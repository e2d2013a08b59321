#include "trace/trace_generator.hpp"

namespace cvmt {

TraceGenerator::TraceGenerator(
    std::shared_ptr<const SyntheticProgram> program,
    std::uint64_t stream_seed)
    : program_(std::move(program)),
      rng_(SplitMix64(stream_seed ^ 0xabcdef12345ULL).next()) {
  CVMT_CHECK(program_ != nullptr);
  // 1MB-granular address-space salt: keeps threads disjoint in shared
  // caches while preserving intra-thread set behaviour.
  address_salt_ = (SplitMix64(stream_seed).next() % 2048) * 0x100000ULL;
  mid_branch_taken_ = Bernoulli(program_->profile().mid_branch_taken);
  const auto& loops = program_->loops();
  walks_.reserve(loops.size());
  for (const SyntheticProgram::Loop& loop : loops)
    walks_.push_back({0, program_->profile().hot_stride % loop.hot_window,
                      0, Bernoulli(loop.miss_frac)});
  enter_next_loop();
}

void TraceGenerator::enter_next_loop() {
  const auto& loops = program_->loops();
  loop_idx_ = rng_.next_below(loops.size());
  loop_ = &loops[loop_idx_];
  steps_ = loop_->steps.data();
  trips_left_ = rng_.next_trip_count(loop_->mean_trips);
  body_pos_ = 0;
}

Instruction TraceGenerator::next() {
  Instruction instr = loop_->instruction(body_pos_);
  instr.set_pc(peek_pc());
  // retire() hands over the data addresses in op order, one per memory
  // op, and the directions as a mask over the memory and branch ops.
  std::size_t mem = 0;
  const std::uint32_t taken = retire([&](std::uint64_t addr) {
    while (!is_memory(instr.op(mem).kind)) ++mem;
    instr.op(mem++).addr = addr;
  });
  unsigned patch = 0;
  for (std::size_t i = 0; i < instr.op_count(); ++i) {
    Operation& op = instr.op(i);
    if (is_memory(op.kind))
      ++patch;
    else if (op.kind == OpKind::kBranch)
      op.taken = ((taken >> patch++) & 1u) != 0;
  }
  return instr;
}

}  // namespace cvmt
