// Compiled execution plan for a merging scheme.
//
// Scheme::Node trees are walked recursively and carry per-leaf modulo
// arithmetic; fine for construction-time work, too slow for the per-cycle
// hot path of the simulator. A MergePlan flattens the tree once, at build
// time, into:
//
//   * a preorder node array with explicit subtree extents (kept for
//     introspection and structural tests), compiled further into a leaf
//     step sequence: per leaf, how many merge blocks open before it and
//     close after it — one select() is a single linear pass over the
//     leaves with a small explicit frame stack, no recursion;
//   * per-rotation leaf permutation tables: leaf_thread(r, i) precomputes
//     (port + r) % num_threads for every rotation r and leaf i, removing
//     the modulo from the leaf path entirely;
//   * a stats template (canonical sub-scheme labels, preorder over merge
//     blocks) that callers can instantiate once and pass back per cycle —
//     or not pass at all: with a null stats pointer the plan skips every
//     counter write (the StatsLevel::kFast policy of the engine).
//
// The plan is immutable after construction and holds no per-cycle state:
// the frame stack lives in caller-owned scratch (constructed once, reused
// every cycle — frames hold Footprints, and zero-initialising them per
// call would dominate the select profile). MergeEngine layers rotation,
// priority policy and statistics on top. Selections are bit-identical to
// the recursive tree walk (covered by the plan-vs-tree property tests).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "isa/footprint.hpp"

namespace cvmt {

/// How much accounting the merge hot path performs per cycle.
enum class StatsLevel : std::uint8_t {
  kFull,  ///< per-merge-block attempt/reject counters + issued histogram
  kFast,  ///< decisions only: IPC sweeps skip all merge-stat writes
};

/// Attempt/reject counters for one merge block of the scheme.
struct MergeNodeStats {
  std::string label;          ///< canonical sub-scheme, e.g. "S(0,1)"
  MergeKind kind = MergeKind::kCsmt;
  std::uint64_t attempts = 0;  ///< pairwise checks with both sides non-empty
  std::uint64_t rejects = 0;   ///< checks that failed (input dropped)

  [[nodiscard]] double reject_rate() const {
    return attempts ? static_cast<double>(rejects) /
                          static_cast<double>(attempts)
                    : 0.0;
  }
};

/// Flattened, immutable evaluator for one scheme on one machine.
class MergePlan {
 public:
  MergePlan(const Scheme& scheme, const MachineConfig& config);

  /// One scheme-tree node in preorder. Block nodes carry the preorder
  /// index one past their subtree (`end`) and their slot in the stats
  /// array; leaves carry their ordinal among leaves (the index into the
  /// rotation permutation tables).
  struct Node {
    MergeKind kind = MergeKind::kCsmt;
    bool leaf = false;
    std::uint16_t end = 0;         ///< blocks: preorder end of the subtree
    std::uint16_t leaf_index = 0;  ///< leaves: ordinal among leaves
    std::uint16_t stats_index = 0; ///< blocks: slot in the stats array
  };

  /// One step of the compiled evaluation: process leaf `leaf_index` after
  /// opening `opens` blocks (consecutive in preorder-block order, starting
  /// at `first_block`) and then close the innermost `closes` blocks.
  struct LeafStep {
    std::uint16_t leaf_index = 0;
    std::uint16_t first_block = 0;
    std::uint16_t opens = 0;
    std::uint16_t closes = 0;
  };

  /// One open (still accumulating) merge block during a pass. Allocate via
  /// make_scratch() once and reuse; select() never reads a frame before
  /// writing it, so stale contents are harmless.
  struct Frame {
    Footprint fp;
    std::uint32_t mask;
    MergeKind kind;
    bool have;  ///< first non-empty input seen
    MergeNodeStats* stats;
  };

  /// Result of one merge evaluation.
  struct Eval {
    Footprint packet;
    std::uint32_t issued_mask = 0;
  };

  /// Evaluates the scheme against per-thread candidates under priority
  /// rotation `rotation` (in [0, num_threads())). A null `candidates`
  /// entry means the thread offers nothing. `scratch` must hold at least
  /// depth() frames (see make_scratch()). When `stats` is non-null it must
  /// point at num_blocks() slots (see make_stats()) and receives the
  /// attempt/reject counts; when null, no counter is touched.
  [[nodiscard]] Eval select(std::span<const Footprint* const> candidates,
                            int rotation, Frame* scratch,
                            MergeNodeStats* stats) const;

  /// select() minus the offer-count scan: the caller guarantees at least
  /// two candidates are non-null (the cycle loop already counted them
  /// while gathering offers, so the scan would be repeated work).
  [[nodiscard]] Eval select_multi(
      std::span<const Footprint* const> candidates, int rotation,
      Frame* scratch, MergeNodeStats* stats) const;

  /// Fresh zeroed stats array matching this plan: one entry per merge
  /// block, preorder, labelled with the block's canonical sub-scheme.
  [[nodiscard]] std::vector<MergeNodeStats> make_stats() const {
    return stats_template_;
  }

  /// Frame stack sized for this plan, for passing back into select().
  [[nodiscard]] std::vector<Frame> make_scratch() const {
    return std::vector<Frame>(static_cast<std::size_t>(depth_) + 1);
  }

  [[nodiscard]] int num_threads() const { return num_threads_; }
  [[nodiscard]] int num_blocks() const {
    return static_cast<int>(stats_template_.size());
  }
  /// True when the scheme is a left-deep chain (cascades, parallel blocks,
  /// IMT — 12 of the 16 paper schemes): evaluation then compiles to a
  /// register-resident fold over the leaves with no frame stack. Balanced
  /// trees (2CC-style) use the general stack pass.
  [[nodiscard]] bool is_linear() const { return !chain_.empty(); }
  /// Maximum number of simultaneously open blocks during a pass (the
  /// frame-stack depth select() needs).
  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<LeafStep>& steps() const { return steps_; }
  [[nodiscard]] const MachineConfig& machine() const { return config_; }

  /// The hardware thread that the priority port of leaf `leaf_index` maps
  /// to under `rotation` — reads the precomputed permutation table.
  [[nodiscard]] int leaf_thread(int rotation, int leaf_index) const {
    return leaf_tid_[static_cast<std::size_t>(rotation) *
                         static_cast<std::size_t>(num_threads_) +
                     static_cast<std::size_t>(leaf_index)];
  }

 private:
  struct BlockRef {
    MergeKind kind;
    std::uint16_t stats_index;
  };

  /// The generic pass, specialised at compile time on whether stat
  /// counters are maintained (select() dispatches on stats == nullptr).
  template <bool kCountStats>
  Eval select_impl(std::span<const Footprint* const> candidates,
                   int rotation, Frame* scratch,
                   MergeNodeStats* stats) const;

  /// The left-deep-chain fold (is_linear() plans only).
  template <bool kCountStats>
  Eval select_linear(std::span<const Footprint* const> candidates,
                     int rotation, MergeNodeStats* stats) const;

  MachineConfig config_;
  int num_threads_ = 0;
  int depth_ = 0;
  std::vector<Node> nodes_;
  std::vector<LeafStep> steps_;
  std::vector<BlockRef> blocks_;  ///< merge blocks in preorder
  /// Linear plans: chain_[i] is the block leaf i merges under (entry 0
  /// unused — the highest-priority leaf always seeds). Empty for trees.
  std::vector<BlockRef> chain_;
  /// leaf_tid_[r * num_threads + leaf_index] = (port + r) % num_threads.
  std::vector<std::uint8_t> leaf_tid_;
  std::vector<MergeNodeStats> stats_template_;
};

}  // namespace cvmt
