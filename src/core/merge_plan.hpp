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
//     close after it — one evaluation is a single linear pass over the
//     leaves with a small explicit frame stack, no recursion;
//   * per-rotation leaf permutation tables: leaf_thread(r, i) precomputes
//     (port + r) % num_threads for every rotation r and leaf i, removing
//     the modulo from the leaf path entirely;
//   * a stats template (canonical sub-scheme labels, preorder over merge
//     blocks) that callers can instantiate once and pass back per cycle —
//     or not pass at all: with a null stats pointer the plan skips every
//     counter write (the StatsLevel::kFast policy of the engine);
//   * the machine's per-cluster issue widths in the SWAR form of the SMT
//     check (Footprint::smt_width), one lane per cluster, so every machine
//     takes the same check whatever its cluster shapes.
//
// A plan is the one compiled form of a scheme on a machine: it keeps the
// validated Scheme and MachineConfig it was built from, the engine and
// the core are built from it alone, and the artifact cache shares one
// per scheme x machine. It is immutable after construction and holds no
// per-cycle state: the frame stack lives in caller-owned scratch
// (constructed once, reused every cycle — frames hold Footprints, and
// zero-initialising them per call would dominate the select profile).
// MergeEngine layers rotation, priority policy and statistics on top.
// Selections are bit-identical to the recursive tree walk, proved on
// every candidate vector of small machines (DESIGN.md §1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scheme.hpp"
#include "isa/footprint.hpp"
#include "support/check.hpp"

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
  /// Compiles `scheme` for `config`; throws CheckError when the machine
  /// is invalid.
  MergePlan(Scheme scheme, const MachineConfig& config);

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
  /// make_scratch() once and reuse; a pass never reads a frame before
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

  /// A merge block as the evaluators see it.
  struct BlockRef {
    MergeKind kind;
    std::uint16_t stats_index;
  };

  /// Everything one evaluation reads of the plan, as raw pointers and
  /// constants: the rotation rows (leaf -> thread), the block each leaf
  /// of a chain merges under or the step program of a tree, and the SMT
  /// width test. The cycle loop loads one per window (through
  /// MergeEngine::Window), so an arbitrated cycle neither re-reads the
  /// plan nor calls out of line. Both evaluators, the chain fold and the
  /// tree pass, are defined inline below and exist only here.
  struct Kernel {
    const std::uint8_t* leaf_tid;  ///< num_threads entries per rotation
    const BlockRef* chain;         ///< linear plans only; null for trees
    const LeafStep* steps;         ///< trees: the leaf-step program
    const LeafStep* steps_end;
    const BlockRef* blocks;        ///< trees: merge blocks in preorder
    const MachineConfig* config;
    Footprint::SmtWidth smt_width;
    int num_threads;

    /// Decides `num_offers` >= 2 non-null candidates (null entries offer
    /// nothing) under priority rotation `rotation` in [0, num_threads).
    /// `scratch` holds depth() + 1 frames (make_scratch()); `stats` points
    /// at num_blocks() slots (make_stats()) and is ignored when
    /// !kCountStats.
    template <bool kCountStats>
    [[nodiscard]] Eval select_multi(const Footprint* const* candidates,
                                    int num_offers, int rotation,
                                    Frame* scratch,
                                    MergeNodeStats* stats) const;

   private:
    [[nodiscard]] bool compatible(MergeKind kind, const Footprint& acc,
                                  const Footprint& in) const;
    template <bool kCountStats>
    [[nodiscard]] Eval fold_chain(const Footprint* const* candidates,
                                  int num_offers, int rotation,
                                  MergeNodeStats* stats) const;
    template <bool kCountStats>
    [[nodiscard]] Eval tree_pass(const Footprint* const* candidates,
                                 int rotation, Frame* scratch,
                                 MergeNodeStats* stats) const;
    template <bool kCountStats>
    void combine(Frame* scratch, Frame* sp, Eval& root, const Footprint& fp,
                 std::uint32_t mask) const;
  };

  /// This plan's tables, for one window of the cycle loop.
  [[nodiscard]] Kernel kernel() const;

  /// Fresh zeroed stats array matching this plan: one entry per merge
  /// block, preorder, labelled with the block's canonical sub-scheme.
  [[nodiscard]] std::vector<MergeNodeStats> make_stats() const {
    return stats_template_;
  }

  /// Frame stack sized for this plan, for passing back into
  /// Kernel::select_multi().
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
  /// The decision signature, computed at construction: two plans on one
  /// machine with equal signatures return the same Eval for every
  /// candidate vector and every rotation. A left-deep chain is keyed
  /// by its thread count, leaf ports and the block kind each leaf i >= 1
  /// merges under (so C4 and 3CCC, which fold the same ports under CSMT in
  /// the same order, share one signature); any other tree by its full
  /// leaf-step program (opened block kinds, leaf port, close count). Stats
  /// indices and labels are not part of it. Sound but not complete: two
  /// trees with different signatures may still decide alike (DESIGN.md
  /// §14 measures how far it is complete).
  [[nodiscard]] const std::string& signature() const { return signature_; }
  /// Maximum number of simultaneously open blocks during a pass (the
  /// frame-stack depth a tree pass needs).
  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<LeafStep>& steps() const { return steps_; }
  /// The scheme and machine this plan was compiled from.
  [[nodiscard]] const Scheme& scheme() const { return scheme_; }
  [[nodiscard]] const MachineConfig& machine() const { return config_; }
  /// Footprint::smt_width(machine()), computed once.
  [[nodiscard]] const Footprint::SmtWidth& smt_width() const {
    return smt_width_;
  }

  /// The hardware thread that the priority port of leaf `leaf_index` maps
  /// to under `rotation` — reads the precomputed permutation table.
  [[nodiscard]] int leaf_thread(int rotation, int leaf_index) const {
    return leaf_tid_[static_cast<std::size_t>(rotation) *
                         static_cast<std::size_t>(num_threads_) +
                     static_cast<std::size_t>(leaf_index)];
  }

 private:
  Scheme scheme_;
  MachineConfig config_;
  Footprint::SmtWidth smt_width_;
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
  std::string signature_;
};

// The evaluators are forced inline: the cycle loop calls them once per
// arbitrated cycle, and the call, spill and reload around an outlined
// copy cost as much as a whole chain fold.

template <bool kCountStats>
[[gnu::always_inline]] inline MergePlan::Eval MergePlan::Kernel::select_multi(
    const Footprint* const* candidates, int num_offers, int rotation,
    Frame* scratch, MergeNodeStats* stats) const {
  return chain != nullptr
             ? fold_chain<kCountStats>(candidates, num_offers, rotation,
                                       stats)
             : tree_pass<kCountStats>(candidates, rotation, scratch, stats);
}

[[gnu::always_inline]] inline bool MergePlan::Kernel::compatible(
    MergeKind kind, const Footprint& acc, const Footprint& in) const {
  switch (kind) {
    case MergeKind::kCsmt:
      return Footprint::csmt_compatible(acc, in);
    case MergeKind::kSmt:
      return Footprint::smt_fits(acc, in, smt_width);
    case MergeKind::kSelect:
      return false;  // never merges: the first offering input wins
  }
  return false;
}

// A left-deep chain: every block opens before the first leaf, so leaf
// i != 0 merges into the single accumulator under chain[i], and the
// whole pass folds into registers. The fold stops at the last offer:
// leaves without one touch nothing.
template <bool kCountStats>
[[gnu::always_inline]] inline MergePlan::Eval MergePlan::Kernel::fold_chain(
    const Footprint* const* candidates, int num_offers, int rotation,
    MergeNodeStats* stats) const {
  const std::uint8_t* perm =
      leaf_tid + static_cast<std::size_t>(rotation) *
                     static_cast<std::size_t>(num_threads);
  Footprint acc;
  std::uint32_t mask = 0;
  for (int i = 0, left = num_offers; left != 0; ++i) {
    const int tid = perm[i];
    const Footprint* fp = candidates[tid];
    if (fp == nullptr) continue;  // nothing offered on this input
    --left;
    if (mask == 0) {
      // The highest-priority input seeds the packet unconditionally.
      acc = *fp;
      mask = 1u << static_cast<unsigned>(tid);
      continue;
    }
    const BlockRef& blk = chain[i];
    if constexpr (kCountStats) ++stats[blk.stats_index].attempts;
    if (compatible(blk.kind, acc, *fp)) {
      acc.merge_with(*fp, *config);
      mask |= 1u << static_cast<unsigned>(tid);
    } else {
      if constexpr (kCountStats) ++stats[blk.stats_index].rejects;
    }
  }
  return {acc, mask};
}

// Greedy in-order combine of one input into the innermost open block:
// the body of the recursive evaluator's child loop.
template <bool kCountStats>
[[gnu::always_inline]] inline void MergePlan::Kernel::combine(
    Frame* scratch, Frame* sp, Eval& root, const Footprint& fp,
    std::uint32_t mask) const {
  if (sp == scratch) {  // the root's own result (root is a leaf)
    root = {fp, mask};
    return;
  }
  Frame& top = sp[-1];
  if (!top.have) {
    // The highest-priority input seeds the packet unconditionally.
    top.fp = fp;
    top.mask = mask;
    top.have = true;
    return;
  }
  if constexpr (kCountStats) ++top.stats->attempts;
  if (compatible(top.kind, top.fp, fp)) {
    top.fp.merge_with(fp, *config);
    top.mask |= mask;
  } else {
    // The whole input packet is dropped: if it was itself a merged group
    // (tree schemes), every thread in it stalls this cycle (§4.1).
    if constexpr (kCountStats) ++top.stats->rejects;
  }
}

// Any other tree: one linear pass over the leaf steps with an explicit
// frame stack in caller-owned scratch.
template <bool kCountStats>
[[gnu::always_inline]] inline MergePlan::Eval MergePlan::Kernel::tree_pass(
    const Footprint* const* candidates, int rotation, Frame* scratch,
    MergeNodeStats* stats) const {
  const std::uint8_t* perm =
      leaf_tid + static_cast<std::size_t>(rotation) *
                     static_cast<std::size_t>(num_threads);
  Frame* sp = scratch;  // one past the innermost open block
  Eval root;
  for (const LeafStep* step = steps; step != steps_end; ++step) {
    for (std::uint16_t b = 0; b < step->opens; ++b) {
      const BlockRef& blk =
          blocks[static_cast<std::size_t>(step->first_block) + b];
      sp->mask = 0;
      sp->kind = blk.kind;
      sp->have = false;
      if constexpr (kCountStats) sp->stats = stats + blk.stats_index;
      ++sp;
    }
    const int tid = perm[step->leaf_index];
    const Footprint* fp = candidates[tid];
    if (fp != nullptr)
      combine<kCountStats>(scratch, sp, root, *fp,
                           1u << static_cast<unsigned>(tid));
    for (std::uint16_t c = 0; c < step->closes; ++c) {
      Frame& done = *--sp;
      if (done.have)
        combine<kCountStats>(scratch, sp, root, done.fp, done.mask);
    }
  }
  CVMT_DCHECK(sp == scratch);
  return root;
}

}  // namespace cvmt
