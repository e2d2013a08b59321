#include "trace/trace_generator.hpp"

namespace cvmt {
namespace {
/// Cold streams advance one line per access (guaranteed compulsory miss)
/// and wrap after 64MB — long evicted by then.
constexpr std::uint64_t kColdLineBytes = 64;
constexpr std::uint64_t kColdWrapBytes = 64ULL << 20;
}  // namespace

TraceGenerator::TraceGenerator(
    std::shared_ptr<const SyntheticProgram> program,
    std::uint64_t stream_seed)
    : program_(std::move(program)),
      rng_(SplitMix64(stream_seed ^ 0xabcdef12345ULL).next()) {
  CVMT_CHECK(program_ != nullptr);
  start_stream(stream_seed);
}

void TraceGenerator::reset(std::shared_ptr<const SyntheticProgram> program,
                           std::uint64_t stream_seed) {
  CVMT_CHECK(program != nullptr);
  program_ = std::move(program);
  rng_ = Xoshiro256(SplitMix64(stream_seed ^ 0xabcdef12345ULL).next());
  start_stream(stream_seed);
}

void TraceGenerator::start_stream(std::uint64_t stream_seed) {
  // 1MB-granular address-space salt: keeps threads disjoint in shared
  // caches while preserving intra-thread set behaviour.
  address_salt_ = (SplitMix64(stream_seed).next() % 2048) * 0x100000ULL;
  const std::size_t n = program_->loops().size();
  hot_cursor_.assign(n, 0);
  cold_cursor_.assign(n, 0);
  hot_stride_mod_.resize(n);
  for (std::size_t l = 0; l < n; ++l)
    hot_stride_mod_[l] =
        program_->profile().hot_stride % program_->loops()[l].hot_window;
  cur_fp_ = nullptr;
  cur_pc_ = 0;
  cur_op_count_ = 0;
  addrs_.clear();
  taken_mask_ = 0;
  emitted_ = 0;
  enter_next_loop();
}

void TraceGenerator::enter_next_loop() {
  const auto& loops = program_->loops();
  loop_idx_ = rng_.next_below(loops.size());
  trips_left_ = rng_.next_trip_count(loops[loop_idx_].mean_trips);
  body_pos_ = 0;
}

void TraceGenerator::advance() {
  const SyntheticProgram::Loop& loop = program_->loops()[loop_idx_];
  const SyntheticProgram::Record& rec = loop.records[body_pos_];

  cur_fp_ = &loop.footprints[body_pos_];
  cur_pc_ = rec.pc + address_salt_;
  cur_op_count_ = rec.op_count;
  addrs_.clear();
  taken_mask_ = 0;
  // Only memory and branch ops (the record's patches) need per-execution
  // data, drawn in op order so the RNG stream is reproducible.
  for (unsigned j = 0; j < rec.num_patches; ++j) {
    if ((rec.mem_mask >> j) & 1u) {
      if (rng_.next_bool(loop.miss_frac)) {
        std::uint64_t& cur = cold_cursor_[loop_idx_];
        addrs_.push_back(loop.cold_base + address_salt_ + cur);
        cur = (cur + kColdLineBytes) % kColdWrapBytes;
      } else {
        // cur is maintained in [0, hot_window): same addresses as the
        // raw-cursor modulo, without the division.
        std::uint64_t& cur = hot_cursor_[loop_idx_];
        addrs_.push_back(loop.hot_base + address_salt_ + cur);
        cur += hot_stride_mod_[loop_idx_];
        if (cur >= loop.hot_window) cur -= loop.hot_window;
      }
    } else if (rec.last ||
               rng_.next_bool(program_->profile().mid_branch_taken)) {
      // The loop-closing branch is always taken (back edge or exit
      // jump); mid-body branches resolve randomly.
      taken_mask_ |= 1u << j;
    }
  }

  ++emitted_;
  if (rec.last) {
    body_pos_ = 0;
    if (--trips_left_ == 0) enter_next_loop();
  } else {
    ++body_pos_;
  }
}

const Instruction& TraceGenerator::next() {
  const SyntheticProgram::Loop& loop = program_->loops()[loop_idx_];
  const std::size_t pos = body_pos_;
  advance();
  // Patch the template with what advance() drew, in the same op order.
  scratch_ = loop.body[pos];
  scratch_.set_pc(cur_pc_);
  std::size_t patch = 0;
  std::size_t next_addr = 0;
  for (std::size_t i = 0; i < scratch_.op_count(); ++i) {
    Operation& op = scratch_.op(i);
    if (is_memory(op.kind)) {
      op.addr = addrs_[next_addr++];
      ++patch;
    } else if (op.kind == OpKind::kBranch) {
      op.taken = ((taken_mask_ >> patch++) & 1u) != 0;
    }
  }
  return scratch_;
}

}  // namespace cvmt
