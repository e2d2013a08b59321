#include "trace/synthetic_program.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "support/rng.hpp"

namespace cvmt {
namespace {

/// Knuth Poisson sampler; fine for the small means used at build time.
int sample_poisson(Xoshiro256& rng, double mean) {
  const double limit = std::exp(-mean);
  double p = 1.0;
  int k = 0;
  do {
    ++k;
    p *= rng.next_double();
  } while (p > limit);
  return k - 1;
}

/// Draws the operation count of one instruction: Poisson around the mean,
/// clamped to [1, machine width].
int sample_op_count(Xoshiro256& rng, double mean, int max_ops) {
  const int k = sample_poisson(rng, mean);
  return std::clamp(k, 1, max_ops);
}

/// Places one operation into the instruction under construction. Clusters
/// are tried starting from `preferred`, walking the whole machine if
/// necessary. Returns false if no capable slot is free anywhere.
bool place_op(Instruction& instr, std::uint32_t occupied[kMaxClusters],
              OpKind kind, int preferred, const MachineConfig& machine) {
  for (int probe = 0; probe < machine.num_clusters; ++probe) {
    const int c = (preferred + probe) % machine.num_clusters;
    const std::uint32_t free_capable =
        machine.slots_for(kind, c) & ~occupied[c];
    if (free_capable == 0) continue;
    const int slot = std::countr_zero(free_capable);
    occupied[c] |= 1u << slot;
    Operation op;
    op.kind = kind;
    op.cluster = static_cast<std::uint8_t>(c);
    op.slot = static_cast<std::uint8_t>(slot);
    instr.add(op);
    return true;
  }
  return false;
}

/// Compiles `body` (its PCs set) into `loop`'s image: one step and the
/// op templates per instruction, the tallies and the expected cycles.
/// `body` can be released afterwards; the image holds all of it but the
/// per-execution fields, which no template carries.
void compile_loop(SyntheticProgram::Loop& loop,
                  const std::vector<Instruction>& body,
                  const BenchmarkProfile& profile,
                  const MachineConfig& machine) {
  std::size_t num_ops = 0;
  for (const Instruction& instr : body) num_ops += instr.op_count();
  CVMT_CHECK_MSG(num_ops <= std::numeric_limits<std::uint32_t>::max(),
                 "loop has more operations than a 32-bit index reaches");
  loop.steps.clear();
  loop.ops.clear();
  loop.op_start.clear();
  loop.steps.reserve(body.size());
  loop.ops.reserve(num_ops);
  loop.op_start.reserve(body.size());
  loop.real_instrs = 0;
  loop.total_ops = static_cast<std::int64_t>(num_ops);
  loop.mem_ops = 0;
  double penalty = 0.0;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const Instruction& instr = body[i];
    SyntheticProgram::Step step;
    step.footprint = Footprint::of(instr, machine);
    step.pc = instr.pc();
    step.op_count = static_cast<std::uint8_t>(instr.op_count());
    step.last = i + 1 == body.size();
    loop.op_start.push_back(static_cast<std::uint32_t>(loop.ops.size()));
    bool has_branch = false;
    for (const Operation& op : instr) {
      loop.ops.push_back({op.kind, op.cluster, op.slot});
      if (is_memory(op.kind)) {
        step.mem_mask |= 1u << step.num_patches++;
        ++loop.mem_ops;
      } else if (op.kind == OpKind::kBranch) {
        ++step.num_patches;
        has_branch = true;
      }
    }
    if (step.last) {
      CVMT_CHECK_MSG(has_branch, "loop must end with a branch");
      penalty += machine.taken_branch_penalty;
    } else if (has_branch) {
      penalty += profile.mid_branch_taken * machine.taken_branch_penalty;
    }
    if (!instr.empty()) ++loop.real_instrs;
    loop.steps.push_back(step);
  }
  loop.expected_cycles_perfect =
      static_cast<double>(body.size()) + penalty;
}

}  // namespace

SyntheticProgram::SyntheticProgram(BenchmarkProfile profile,
                                   MachineConfig machine)
    : profile_(std::move(profile)), machine_(machine) {
  profile_.validate();
  machine_.validate();
  const int m = machine_.num_clusters;

  loops_.resize(static_cast<std::size_t>(profile_.num_loops));
  for (int l = 0; l < profile_.num_loops; ++l) {
    Loop& loop = loops_[static_cast<std::size_t>(l)];
    const auto lu = static_cast<std::uint64_t>(l);
    Xoshiro256 rng(profile_.seed * std::uint64_t{0x9e3779b9} +
                   std::uint64_t{0x51} * (lu + 1));

    // --- Body size and home cluster ---------------------------------
    const double body_scale = 0.6 + 0.8 * rng.next_double();
    const int n_real = std::max(
        2, static_cast<int>(std::llround(profile_.mean_body_instrs *
                                         body_scale)));
    const int home_cluster = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(m)));

    // --- Schedule the real instructions -----------------------------
    std::vector<Instruction> body;
    double expected_penalty = 0.0;
    for (int i = 0; i < n_real; ++i) {
      const bool is_last = i == n_real - 1;
      Instruction instr;
      std::uint32_t occupied[kMaxClusters] = {};
      int k = sample_op_count(rng, profile_.mean_ops_per_instr,
                              machine_.total_issue_width());

      // The instruction's cluster window: k ops packed at
      // ops_per_cluster_target density, anchored at the loop's home.
      const int window = std::clamp(
          static_cast<int>(std::ceil(static_cast<double>(k) /
                                     profile_.ops_per_cluster_target)),
          1, m);

      const bool mid_branch =
          !is_last && rng.next_bool(profile_.mid_branch_frac);
      if (is_last || mid_branch) {
        // Control flow lives on cluster 0, as in the Lx/ST200 family: the
        // branch unit of cluster 0 sequences the whole processor. This is
        // a real merge bottleneck — two threads' branch packets collide.
        place_op(instr, occupied, OpKind::kBranch, 0, machine_);
        --k;
        expected_penalty +=
            (is_last ? 1.0 : profile_.mid_branch_taken) *
            machine_.taken_branch_penalty;
      }
      for (int j = 0; j < k; ++j) {
        const int preferred = (home_cluster + j % window) % m;
        OpKind kind = OpKind::kAlu;
        const double dice = rng.next_double();
        if (dice < profile_.mem_op_frac)
          kind = rng.next_bool(profile_.store_frac) ? OpKind::kStore
                                                    : OpKind::kLoad;
        else if (dice < profile_.mem_op_frac + profile_.mul_op_frac)
          kind = OpKind::kMul;
        place_op(instr, occupied, kind, preferred, machine_);
      }
      body.push_back(instr);
    }

    // --- Tally, then insert bubbles to hit the IPCp target ----------
    std::int64_t total_ops = 0;
    for (const Instruction& instr : body)
      total_ops += static_cast<std::int64_t>(instr.op_count());
    const double ops = static_cast<double>(total_ops);
    const std::int64_t bubbles = std::max<std::int64_t>(
        0, std::llround(ops / profile_.target_ipc_perfect -
                        static_cast<double>(n_real) - expected_penalty));
    for (std::int64_t b = 0; b < bubbles; ++b) {
      // Insert before the final (branch) instruction.
      const auto pos =
          static_cast<std::ptrdiff_t>(rng.next_below(body.size()));
      body.insert(body.begin() + pos, Instruction{});
    }

    // --- Assign PCs and compile the body into the image ----------------
    loop.code_base = std::uint64_t{0x10000} + lu * std::uint64_t{0x1000};
    CVMT_CHECK_MSG(body.size() * profile_.code_bytes_per_instr <=
                       std::uint64_t{0x1000},
                   "loop body overflows its code region");
    for (std::size_t i = 0; i < body.size(); ++i)
      body[i].set_pc(loop.code_base + static_cast<std::uint64_t>(i) *
                                          profile_.code_bytes_per_instr);
    compile_loop(loop, body, profile_, machine_);

    // --- Timing bookkeeping and the IPCr miss mix ---------------------
    loop.mean_trips = profile_.mean_trip_count;
    if (loop.mem_ops > 0 && profile_.target_ipc_real <
                                profile_.target_ipc_perfect) {
      const double misses_needed =
          (ops / profile_.target_ipc_real - ops /
           profile_.target_ipc_perfect) /
          profile_.assumed_miss_penalty;
      loop.miss_frac = std::clamp(
          misses_needed / static_cast<double>(loop.mem_ops), 0.0, 0.95);
    }

    // --- Data regions --------------------------------------------------
    loop.hot_window = std::min<std::uint64_t>(profile_.hot_bytes, 4096);
    const std::uint64_t hot_span = profile_.hot_bytes - loop.hot_window;
    loop.hot_base =
        std::uint64_t{0x20000000} +
        (hot_span ? (rng.next_below(hot_span) & ~std::uint64_t{63}) : 0);
    loop.cold_base =
        std::uint64_t{0x40000000} + lu * std::uint64_t{0x04000000};
  }
}

SyntheticProgram::SyntheticProgram(BenchmarkProfile profile,
                                   MachineConfig machine,
                                   std::vector<LoopSource> loops)
    : profile_(std::move(profile)), machine_(machine) {
  profile_.validate();
  machine_.validate();
  CVMT_CHECK_MSG(!loops.empty(), "program needs at least one loop");
  loops_.reserve(loops.size());
  for (LoopSource& source : loops) {
    Loop& loop = loops_.emplace_back(std::move(source.loop));
    CVMT_CHECK_MSG(!source.body.empty(), "loop body cannot be empty");
    CVMT_CHECK_MSG(loop.mean_trips >= 1.0, "trip count below 1");
    CVMT_CHECK_MSG(loop.miss_frac >= 0.0 && loop.miss_frac <= 1.0,
                   "miss fraction out of range");
    CVMT_CHECK_MSG(loop.hot_window >= 1, "hot window must be non-empty");
    for (const Instruction& instr : source.body) {
      const std::string err = instr.validate(machine_);
      CVMT_CHECK_MSG(err.empty(), "invalid instruction in loop: " + err);
    }
    compile_loop(loop, source.body, profile_, machine_);
    source.body = {};
  }
}

Instruction SyntheticProgram::Loop::instruction(std::size_t i) const {
  const Step& step = steps[i];
  Instruction instr;
  instr.set_pc(step.pc);
  const OpTemplate* op = ops.data() + op_start[i];
  for (std::uint8_t k = 0; k < step.op_count; ++k, ++op)
    instr.add({op->kind, op->cluster, op->slot, false, 0});
  return instr;
}

double SyntheticProgram::expected_ipc_perfect() const {
  double ops = 0.0;
  double cycles = 0.0;
  for (const Loop& loop : loops_) {
    ops += loop.mean_trips * static_cast<double>(loop.total_ops);
    cycles += loop.mean_trips * loop.expected_cycles_perfect;
  }
  return cycles > 0.0 ? ops / cycles : 0.0;
}

double SyntheticProgram::expected_ipc_real() const {
  double ops = 0.0;
  double cycles = 0.0;
  for (const Loop& loop : loops_) {
    ops += loop.mean_trips * static_cast<double>(loop.total_ops);
    cycles += loop.mean_trips *
              (loop.expected_cycles_perfect +
               loop.miss_frac * static_cast<double>(loop.mem_ops) *
                   profile_.assumed_miss_penalty);
  }
  return cycles > 0.0 ? ops / cycles : 0.0;
}

}  // namespace cvmt
