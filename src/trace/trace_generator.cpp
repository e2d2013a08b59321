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
  records_ = loop_->records.data();
  trips_left_ = rng_.next_trip_count(loop_->mean_trips);
  body_pos_ = 0;
}

void TraceGenerator::advance() {
  const SyntheticProgram::Loop& loop = *loop_;
  const SyntheticProgram::Record& rec = records_[body_pos_];

  cur_fp_ = &loop.footprints[body_pos_];
  cur_pc_ = rec.pc + address_salt_;
  cur_op_count_ = rec.op_count;
  addrs_.clear();
  taken_mask_ = 0;
  // Only memory and branch ops (the record's patches) need per-execution
  // data, drawn in op order so the RNG stream is reproducible.
  LoopWalk& walk = walks_[loop_idx_];
  for (unsigned j = 0; j < rec.num_patches; ++j) {
    if ((rec.mem_mask >> j) & 1u) {
      // The draw steers a branch on purpose: the cold stream is the rare
      // outcome (Table 1 loops miss at most 11% of their accesses), so
      // the branch predicts well, and forming both streams' addresses to
      // select one by mask measured slower.
      if (rng_.next_bool(walk.miss)) {
        addrs_.push_back(loop.cold_base + address_salt_ + walk.cold_cursor);
        walk.cold_cursor =
            (walk.cold_cursor + kColdLineBytes) % kColdWrapBytes;
      } else {
        // The hot cursor stays in [0, hot_window): same addresses as the
        // raw-cursor modulo, without the division.
        addrs_.push_back(loop.hot_base + address_salt_ + walk.hot_cursor);
        walk.hot_cursor += walk.hot_stride;
        if (walk.hot_cursor >= loop.hot_window)
          walk.hot_cursor -= loop.hot_window;
      }
    } else if (rec.last || rng_.next_bool(mid_branch_taken_)) {
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
  const SyntheticProgram::Loop& loop = *loop_;
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
