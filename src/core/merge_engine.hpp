// Cycle-by-cycle evaluation of a merging scheme.
//
// Each cycle the merge control receives at most one candidate instruction
// per hardware thread (stalled threads present none) and greedily selects a
// subset to issue as one execution packet. Priority rotates round-robin
// across threads for fairness, as in the CSMT base design.
//
// The engine is a thin stateful wrapper over an immutable MergePlan: the
// plan owns the flattened scheme and the per-rotation permutation tables;
// the engine owns the rotation index, the priority policy and the
// statistics. The original recursive tree walk is retained as
// EvalMode::kTreeReference — bit-identical by construction, used by the
// equivalence tests and as the baseline of bench_cycle_loop.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/merge_plan.hpp"
#include "core/scheme.hpp"
#include "isa/footprint.hpp"
#include "support/stats.hpp"

namespace cvmt {

/// How thread-to-priority-port assignment evolves over time.
enum class PriorityPolicy : std::uint8_t {
  kRoundRobin,     ///< rotate by one port every cycle (default, fair)
  kFixed,          ///< thread i always has priority i (starvation-prone)
  kStickyOnStall,  ///< keep the leader until it stalls (BMT-style: with an
                   ///< IMT select scheme this is Block MultiThreading)
};

/// Which evaluator answers select(). Decisions are bit-identical; only
/// speed differs. kTreeReference exists for validation and benchmarking.
/// The values are hashed into result-store point keys, so they never
/// change (2 stays the tree reference; 1 was a retired evaluator).
enum class EvalMode : std::uint8_t {
  kPlan = 0,           ///< flattened MergePlan (default, hot path)
  kTreeReference = 2,  ///< recursive Scheme::Node walk (reference)
};

/// Outcome of one merge cycle.
struct MergeDecision {
  /// Bit t set <=> hardware thread t issues its candidate this cycle.
  std::uint32_t issued_mask = 0;
  /// Resource footprint of the final execution packet.
  Footprint packet;
  /// Number of threads issued (popcount of issued_mask).
  int num_issued = 0;
};

/// Evaluates one scheme against per-cycle candidates and keeps statistics.
class MergeEngine {
 public:
  MergeEngine(Scheme scheme, MachineConfig config,
              PriorityPolicy policy = PriorityPolicy::kRoundRobin,
              StatsLevel stats_level = StatsLevel::kFull,
              EvalMode eval_mode = EvalMode::kPlan);

  /// Construction from a pre-compiled plan (the session layer's
  /// CompiledScheme shares one immutable MergePlan across every engine for
  /// the same scheme x machine, skipping the per-engine compilation).
  /// `plan` must have been built for exactly this scheme and machine.
  MergeEngine(Scheme scheme, std::shared_ptr<const MergePlan> plan,
              MachineConfig config,
              PriorityPolicy policy = PriorityPolicy::kRoundRobin,
              StatsLevel stats_level = StatsLevel::kFull,
              EvalMode eval_mode = EvalMode::kPlan);

  /// Restores the freshly-constructed state under (possibly new) policy
  /// knobs: rotation and cycle count rewound, histogram and node counters
  /// zeroed (labels kept — they come from the immutable plan). Bit-identical
  /// to building a new engine with the same scheme/plan/machine, but
  /// without reallocating the scratch, stats or histogram buffers.
  void reset(PriorityPolicy policy, StatsLevel stats_level,
             EvalMode eval_mode);

  /// Selects the threads to issue this cycle. `candidates` is indexed by
  /// hardware thread id; a null entry means the thread has nothing to issue
  /// (stalled or idle). Size must equal scheme().num_threads().
  /// Defined inline below: this is the per-cycle entry point of the
  /// simulator and the wrapper (histogram, rotation policy) should fold
  /// into the caller's loop.
  MergeDecision select(std::span<const Footprint* const> candidates);

  /// select() for the cycle loop, which counted the offers while
  /// gathering them and never reads the merged packet: skips the plan's
  /// own offer scan and all packet copies, and decides single-offer
  /// cycles without entering the plan at all — a lone offer always issues
  /// alone and moves no merge counter. `only_offer` is the offering
  /// thread when `num_offers` == 1 (ignored otherwise). Decisions and
  /// statistics are identical to select(). The tree-reference mode
  /// ignores the hints and takes its usual full walk.
  std::uint32_t select_mask_gathered(
      std::span<const Footprint* const> candidates, int num_offers,
      int only_offer);

  /// Resets the priority rotation to its initial state (thread i on
  /// priority port i); used when re-seeding runs. This rewinds only the
  /// rotation *index* — the plan's per-rotation permutation tables are
  /// immutable — and leaves all statistics in place, so a reset engine
  /// replays an identical candidate stream into identical decisions.
  void reset_rotation() { rotation_ = 0; }

  [[nodiscard]] const Scheme& scheme() const { return scheme_; }
  [[nodiscard]] const MachineConfig& machine() const { return config_; }
  [[nodiscard]] PriorityPolicy policy() const { return policy_; }
  [[nodiscard]] StatsLevel stats_level() const { return stats_level_; }
  [[nodiscard]] EvalMode eval_mode() const { return eval_mode_; }
  [[nodiscard]] const MergePlan& plan() const { return *plan_; }
  /// The shared compiled plan (see the CompiledScheme artifact).
  [[nodiscard]] const std::shared_ptr<const MergePlan>& shared_plan() const {
    return plan_;
  }

  /// Per-merge-block statistics, in preorder over the scheme tree, labelled
  /// with each block's canonical sub-scheme (e.g. "S(0,1)"). Under
  /// StatsLevel::kFast the labels are present but the counters stay zero.
  [[nodiscard]] const std::vector<MergeNodeStats>& node_stats() const {
    return node_stats_;
  }
  /// Distribution of threads issued per cycle (bucket k = k threads).
  /// Under StatsLevel::kFast the histogram stays empty.
  [[nodiscard]] const Histogram& issued_histogram() const {
    return issued_histogram_;
  }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

 private:
  struct EvalResult {
    Footprint fp;
    std::uint32_t mask = 0;
  };

  /// Reference recursive evaluator (the pre-plan implementation).
  EvalResult eval_tree(const Scheme::Node& node,
                       std::span<const Footprint* const> candidates,
                       std::size_t& node_id, bool count_stats);

  Scheme scheme_;
  MachineConfig config_;
  PriorityPolicy policy_;
  StatsLevel stats_level_;
  EvalMode eval_mode_;
  /// Immutable and shareable: engines for the same scheme x machine (e.g.
  /// a cached CompiledScheme's instances) point at one plan.
  std::shared_ptr<const MergePlan> plan_;
  /// Reusable frame stack for plan_.select (constructed once; see
  /// MergePlan::make_scratch).
  std::vector<MergePlan::Frame> scratch_;
  int rotation_ = 0;
  std::vector<MergeNodeStats> node_stats_;
  Histogram issued_histogram_;
  std::uint64_t cycles_ = 0;

  /// Out-of-line pieces of select(): the reference evaluator and the
  /// decision bookkeeping.
  MergeDecision select_tree(std::span<const Footprint* const> candidates);

  /// Post-decision bookkeeping shared by both evaluators: histogram (full
  /// stats only), cycle count and the priority-rotation policy update.
  /// Private: select()/select_mask_gathered() call it exactly once per
  /// decision; a second call would double-advance the rotation.
  void finish_cycle(int num_issued,
                    std::span<const Footprint* const> candidates);
};

inline MergeDecision MergeEngine::select(
    std::span<const Footprint* const> candidates) {
  if (eval_mode_ == EvalMode::kTreeReference) return select_tree(candidates);
  CVMT_CHECK_MSG(
      candidates.size() == static_cast<std::size_t>(scheme_.num_threads()),
      "candidate count must match scheme thread count");
  MergeNodeStats* stats =
      stats_level_ == StatsLevel::kFull ? node_stats_.data() : nullptr;
  const MergePlan::Eval r =
      plan_->select(candidates, rotation_, scratch_.data(), stats);
  MergeDecision d;
  d.issued_mask = r.issued_mask;
  d.packet = r.packet;
  d.num_issued = std::popcount(r.issued_mask);
  finish_cycle(d.num_issued, candidates);
  return d;
}

inline std::uint32_t MergeEngine::select_mask_gathered(
    std::span<const Footprint* const> candidates, int num_offers,
    int only_offer) {
  if (eval_mode_ == EvalMode::kTreeReference)
    return select_tree(candidates).issued_mask;
  CVMT_CHECK_MSG(
      candidates.size() == static_cast<std::size_t>(scheme_.num_threads()),
      "candidate count must match scheme thread count");
  std::uint32_t mask = 0;
  if (num_offers == 1) {
    // A lone offer always issues alone: the first non-empty input seeds
    // its block unconditionally and no merge check fires anywhere.
    mask = 1u << static_cast<unsigned>(only_offer);
  } else if (num_offers > 1) {
    MergeNodeStats* stats =
        stats_level_ == StatsLevel::kFull ? node_stats_.data() : nullptr;
    mask = plan_->select_multi(candidates, rotation_, scratch_.data(),
                               stats)
               .issued_mask;
  }
  finish_cycle(std::popcount(mask), candidates);
  return mask;
}

}  // namespace cvmt
