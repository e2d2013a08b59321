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
  cur_patches_ = nullptr;
  cur_tmpl_ = nullptr;
  cur_is_scratch_ = false;
  cur_pc_ = 0;
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

  cur_tmpl_ = &loop.body[body_pos_];
  cur_fp_ = &loop.footprints[body_pos_];
  cur_patches_ = &loop.patch_ops[body_pos_];
  cur_pc_ = cur_tmpl_->pc() + address_salt_;
  cur_is_scratch_ = !cur_patches_->empty();

  const bool is_last = body_pos_ + 1 == loop.body.size();
  if (cur_is_scratch_) {
    // Only memory and branch ops need per-execution patching; the
    // precomputed patch list (op order preserved, so RNG draws are
    // reproducible) skips the rest — and a patch-free instruction skips
    // the copy altogether.
    scratch_ = *cur_tmpl_;
    scratch_.set_pc(cur_pc_);
    for (const std::uint8_t i : *cur_patches_) {
      Operation& op = scratch_.op(i);
      if (is_memory(op.kind)) {
        if (rng_.next_bool(loop.miss_frac)) {
          std::uint64_t& cur = cold_cursor_[loop_idx_];
          op.addr = loop.cold_base + address_salt_ + cur;
          cur = (cur + kColdLineBytes) % kColdWrapBytes;
        } else {
          // cur is maintained in [0, hot_window): same addresses as the
          // raw-cursor modulo, without the division.
          std::uint64_t& cur = hot_cursor_[loop_idx_];
          op.addr = loop.hot_base + address_salt_ + cur;
          cur += hot_stride_mod_[loop_idx_];
          if (cur >= loop.hot_window) cur -= loop.hot_window;
        }
      } else {
        // The loop-closing branch is always taken (back edge or exit
        // jump); mid-body branches resolve randomly.
        op.taken = is_last ||
                   rng_.next_bool(program_->profile().mid_branch_taken);
      }
    }
  }

  ++emitted_;
  if (is_last) {
    body_pos_ = 0;
    if (--trips_left_ == 0) enter_next_loop();
  } else {
    ++body_pos_;
  }
}

const Instruction& TraceGenerator::next() {
  advance();
  if (!cur_is_scratch_) {
    // Preserve next()'s contract: the returned instruction carries the
    // salted PC, so materialise the template into scratch.
    scratch_ = *cur_tmpl_;
    scratch_.set_pc(cur_pc_);
    cur_is_scratch_ = true;
  }
  return scratch_;
}

const Footprint& TraceGenerator::current_footprint() const {
  return *cur_fp_;
}

}  // namespace cvmt
