// Cycle-by-cycle evaluation of a merging scheme.
//
// Each cycle the merge control receives at most one candidate instruction
// per hardware thread (stalled threads present none) and greedily selects a
// subset to issue as one execution packet. Priority rotates round-robin
// across threads for fairness, as in the CSMT base design.
//
// The engine is a thin stateful wrapper over an immutable MergePlan: the
// plan owns the scheme, the machine, the flattened tree and the
// per-rotation permutation tables; the engine owns the rotation index,
// the priority policy and the statistics. The original recursive tree
// walk is retained as EvalMode::kTreeReference — bit-identical by
// construction, the oracle of the equivalence tests and the differential
// fuzzer.
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
/// speed differs. kTreeReference exists as the validation oracle.
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
  /// An engine over `plan`, which engines for the same scheme x machine
  /// share (the artifact cache hands out one per pair).
  explicit MergeEngine(std::shared_ptr<const MergePlan> plan,
                       PriorityPolicy policy = PriorityPolicy::kRoundRobin,
                       StatsLevel stats_level = StatsLevel::kFull,
                       EvalMode eval_mode = EvalMode::kPlan);

  /// Same, compiling `scheme` for `config` first.
  MergeEngine(Scheme scheme, const MachineConfig& config,
              PriorityPolicy policy = PriorityPolicy::kRoundRobin,
              StatsLevel stats_level = StatsLevel::kFull,
              EvalMode eval_mode = EvalMode::kPlan);

  /// Selects the threads to issue this cycle. `candidates` is indexed by
  /// hardware thread id; a null entry means the thread has nothing to issue
  /// (stalled or idle). Size must equal scheme().num_threads().
  /// Defined inline below: this is the per-cycle entry point of the
  /// simulator and the wrapper (histogram, rotation policy) should fold
  /// into the caller's loop.
  MergeDecision select(std::span<const Footprint* const> candidates);

  /// The engine's per-cycle state, held in locals for one window of the
  /// cycle loop: the rotation and cycle count, the plan's kernel (rotation
  /// rows, per-leaf block kinds, SMT width), the stats sinks (null under
  /// kFast) and the priority policy. The loop takes one with window() at
  /// entry and decides each arbitrated cycle with select(), which is
  /// inline and calls nothing out of line on the plan path. close() at
  /// every exit writes the rotation and cycle count back; in between, the
  /// engine itself must not be used. The engine's own select() is a
  /// one-cycle window, so every evaluator path is this one.
  class Window {
   public:
    /// Decides one cycle for a caller that counted the offers while
    /// gathering them: `candidates` has num_threads entries, of which
    /// exactly `num_offers` are non-null; `only_offer` is the offering
    /// thread when `num_offers` == 1 (ignored otherwise). A lone offer is
    /// decided without entering the plan: it always issues alone and
    /// moves no merge counter. The tree-reference mode ignores the hints
    /// and takes its full walk. Decisions and statistics equal
    /// MergeEngine::select()'s.
    MergePlan::Eval select(const Footprint* const* candidates,
                           int num_offers, int only_offer);

   private:
    friend class MergeEngine;
    MergePlan::Kernel kernel_;
    MergePlan::Frame* scratch_;
    MergeNodeStats* node_stats_;  ///< null under kFast
    Histogram* histogram_;        ///< null under kFast
    MergeEngine* tree_;           ///< non-null under kTreeReference
    PriorityPolicy policy_;
    int rotation_;
    std::uint64_t cycles_;
  };

  /// Loads a Window; see Window.
  [[nodiscard]] Window window() {
    const bool full = stats_level_ == StatsLevel::kFull;
    Window w;
    w.kernel_ = plan_->kernel();
    w.scratch_ = scratch_.data();
    w.node_stats_ = full ? node_stats_.data() : nullptr;
    w.histogram_ = full ? &issued_histogram_ : nullptr;
    w.tree_ = eval_mode_ == EvalMode::kTreeReference ? this : nullptr;
    w.policy_ = policy_;
    w.rotation_ = rotation_;
    w.cycles_ = cycles_;
    return w;
  }

  /// Writes a Window's rotation and cycle count back.
  void close(const Window& w) {
    rotation_ = w.rotation_;
    cycles_ = w.cycles_;
  }

  [[nodiscard]] const Scheme& scheme() const { return plan_->scheme(); }
  [[nodiscard]] const MachineConfig& machine() const {
    return plan_->machine();
  }
  [[nodiscard]] const MergePlan& plan() const { return *plan_; }

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
  /// Reference recursive evaluator (the pre-plan implementation).
  MergePlan::Eval eval_tree(const Scheme::Node& node,
                            const Footprint* const* candidates, int rotation,
                            std::size_t& node_id, bool count_stats);

  /// The tree walk from the root: the kTreeReference branch of
  /// Window::select(). Out of line: it is the oracle, not the hot path.
  MergePlan::Eval select_tree(const Footprint* const* candidates,
                              int rotation);

  /// Immutable and shareable: engines for the same scheme x machine
  /// point at one plan.
  std::shared_ptr<const MergePlan> plan_;
  PriorityPolicy policy_;
  StatsLevel stats_level_;
  EvalMode eval_mode_;
  /// Reusable frame stack for the tree pass (constructed once; see
  /// MergePlan::make_scratch).
  std::vector<MergePlan::Frame> scratch_;
  int rotation_ = 0;
  std::vector<MergeNodeStats> node_stats_;
  Histogram issued_histogram_;
  std::uint64_t cycles_ = 0;
};

[[gnu::always_inline]] inline MergePlan::Eval MergeEngine::Window::select(
    const Footprint* const* candidates, int num_offers, int only_offer) {
  MergePlan::Eval r;
  if (tree_ != nullptr) [[unlikely]] {
    r = tree_->select_tree(candidates, rotation_);
  } else if (num_offers == 1) {
    // A lone offer always issues alone: the first non-empty input seeds
    // its block unconditionally and no merge check fires anywhere.
    r = {*candidates[only_offer], 1u << static_cast<unsigned>(only_offer)};
  } else if (num_offers > 1) {
    r = node_stats_ != nullptr
            ? kernel_.select_multi<true>(candidates, num_offers, rotation_,
                                         scratch_, node_stats_)
            : kernel_.select_multi<false>(candidates, num_offers, rotation_,
                                          scratch_, nullptr);
  }
  // Decision bookkeeping: histogram (full stats only: the popcount is
  // paid nowhere else), cycle count, and the priority-rotation policy.
  // rotation_ is kept in [0, n) so the wrap is a compare, not a modulo.
  if (histogram_ != nullptr)
    histogram_->add(static_cast<std::size_t>(std::popcount(r.issued_mask)));
  ++cycles_;
  const int n = kernel_.num_threads;
  switch (policy_) {
    case PriorityPolicy::kRoundRobin:
      rotation_ = rotation_ + 1 == n ? 0 : rotation_ + 1;
      break;
    case PriorityPolicy::kStickyOnStall:
      // Keep the current leader while it offers instructions; hand the
      // lead to the next thread once it stalls (BMT's switch-on-event).
      if (candidates[rotation_] == nullptr)
        rotation_ = rotation_ + 1 == n ? 0 : rotation_ + 1;
      break;
    case PriorityPolicy::kFixed:
      break;
  }
  return r;
}

inline MergeDecision MergeEngine::select(
    std::span<const Footprint* const> candidates) {
  CVMT_CHECK_MSG(
      candidates.size() == static_cast<std::size_t>(plan_->num_threads()),
      "candidate count must match scheme thread count");
  int num_offers = 0;
  int only_offer = -1;
  for (std::size_t t = 0; t < candidates.size(); ++t) {
    if (candidates[t] != nullptr) {
      ++num_offers;
      only_offer = static_cast<int>(t);
    }
  }
  Window w = window();
  const MergePlan::Eval r = w.select(candidates.data(), num_offers,
                                     only_offer);
  close(w);
  return {r.issued_mask, r.packet, std::popcount(r.issued_mask)};
}

}  // namespace cvmt
