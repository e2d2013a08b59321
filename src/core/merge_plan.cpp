#include "core/merge_plan.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace cvmt {
namespace {

struct FlattenState {
  std::vector<MergePlan::Node> nodes;
  std::vector<std::uint8_t> ports;  ///< leaf ports in preorder
  std::vector<MergeNodeStats> stats;
  int max_depth = 0;
};

/// Preorder flattening; `end` of each node is one past its subtree.
void flatten(const Scheme::Node& node, FlattenState& st, int depth) {
  st.max_depth = std::max(st.max_depth, depth);
  const std::size_t self = st.nodes.size();
  st.nodes.emplace_back();
  if (node.is_leaf()) {
    st.nodes[self].leaf = true;
    st.nodes[self].leaf_index =
        static_cast<std::uint16_t>(st.ports.size());
    st.ports.push_back(static_cast<std::uint8_t>(node.port));
    st.nodes[self].end = static_cast<std::uint16_t>(st.nodes.size());
    return;
  }
  st.nodes[self].kind = node.kind;
  st.nodes[self].stats_index = static_cast<std::uint16_t>(st.stats.size());
  st.stats.push_back({Scheme::canonical(node), node.kind, 0, 0});
  for (const auto& child : node.children) flatten(child, st, depth + 1);
  st.nodes[self].end = static_cast<std::uint16_t>(st.nodes.size());
}

}  // namespace

MergePlan::MergePlan(const Scheme& scheme, const MachineConfig& config)
    : config_(config), num_threads_(scheme.num_threads()) {
  config_.validate();

  FlattenState st;
  flatten(scheme.root(), st, /*depth=*/1);
  nodes_ = std::move(st.nodes);
  stats_template_ = std::move(st.stats);
  depth_ = st.max_depth;
  CVMT_CHECK(static_cast<int>(st.ports.size()) == num_threads_);
  CVMT_CHECK_MSG(nodes_.size() < (1u << 16), "scheme too large for a plan");

  // Compile the node array into leaf steps: simulate the traversal stack
  // once so the per-cycle pass needs no subtree-extent comparisons. Along
  // the way, record which block is innermost-open at each leaf — for
  // left-deep chains that is all select_linear() needs.
  std::vector<std::uint16_t> open_ends;    // `end` of each open block
  std::vector<std::uint16_t> open_blocks;  // block index of each open block
  std::vector<BlockRef> innermost_at_leaf;
  LeafStep pending{};                      // opens accumulated since last leaf
  bool first_block_set = false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& nd = nodes_[i];
    if (!nd.leaf) {
      blocks_.push_back({nd.kind, nd.stats_index});
      if (!first_block_set) {
        pending.first_block =
            static_cast<std::uint16_t>(blocks_.size() - 1);
        first_block_set = true;
      }
      ++pending.opens;
      open_ends.push_back(nd.end);
      open_blocks.push_back(static_cast<std::uint16_t>(blocks_.size() - 1));
      continue;
    }
    pending.leaf_index = nd.leaf_index;
    innermost_at_leaf.push_back(
        open_blocks.empty() ? BlockRef{MergeKind::kCsmt, 0}
                            : blocks_[open_blocks.back()]);
    // Blocks whose subtree ends right after this leaf close now; a parent
    // ending at the same index cascades.
    while (!open_ends.empty() && open_ends.back() == i + 1) {
      open_ends.pop_back();
      open_blocks.pop_back();
      ++pending.closes;
    }
    steps_.push_back(pending);
    pending = LeafStep{};
    first_block_set = false;
  }
  CVMT_CHECK(open_ends.empty());
  CVMT_CHECK(static_cast<int>(steps_.size()) == num_threads_);
  CVMT_CHECK(static_cast<int>(blocks_.size()) == num_blocks());

  // A plan is a left-deep chain when every block opens before the first
  // leaf. Then leaf i != 0 merges into the single accumulator under the
  // block innermost-open at i, and closes transfer results upward without
  // further checks — the whole pass folds into registers. The paper's
  // cascades, parallel blocks and IMT baselines all qualify; balanced
  // trees (e.g. 2CC) do not and keep the stack pass.
  if (num_blocks() > 0 &&
      steps_[0].opens == static_cast<std::uint16_t>(num_blocks())) {
    bool linear = true;
    for (std::size_t s = 1; s < steps_.size(); ++s)
      linear &= steps_[s].opens == 0;
    if (linear) {
      CVMT_CHECK(innermost_at_leaf.size() == steps_.size());
      for (std::size_t s = 0; s < steps_.size(); ++s)
        CVMT_CHECK(steps_[s].leaf_index == s);  // leaves are preordered
      chain_ = std::move(innermost_at_leaf);
    }
  }

  // Precompute every rotation's leaf->thread permutation so the hot path
  // replaces (port + rotation) % n with one table read.
  const auto n = static_cast<std::size_t>(num_threads_);
  leaf_tid_.resize(n * n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t i = 0; i < n; ++i)
      leaf_tid_[r * n + i] =
          static_cast<std::uint8_t>((st.ports[i] + r) % n);
}

template <bool kCountStats>
MergePlan::Eval MergePlan::select_impl(
    std::span<const Footprint* const> candidates, int rotation,
    Frame* scratch, MergeNodeStats* stats) const {
  const std::uint8_t* perm =
      leaf_tid_.data() + static_cast<std::size_t>(rotation) *
                             static_cast<std::size_t>(num_threads_);

  Frame* sp = scratch;  // one past the innermost open block
  Eval root;

  // Greedy in-order combine of one input into the innermost open block —
  // the body of the recursive evaluator's child loop. Stats counting is a
  // compile-time branch so the fast path carries no per-merge checks.
  const auto combine = [&](const Footprint& fp, std::uint32_t mask) {
    if (sp == scratch) {  // the root's own result (root is a leaf)
      root.packet = fp;
      root.issued_mask = mask;
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
    bool ok = false;
    switch (top.kind) {
      case MergeKind::kCsmt:
        ok = Footprint::csmt_compatible(top.fp, fp);
        break;
      case MergeKind::kSmt:
        ok = Footprint::smt_compatible(top.fp, fp, config_);
        break;
      case MergeKind::kSelect:
        ok = false;  // never merges: the first offering input wins
        break;
    }
    if (ok) {
      top.fp.merge_with(fp, config_);
      top.mask |= mask;
    } else {
      // The whole input packet is dropped: if it was itself a merged
      // group (tree schemes), every thread in it stalls this cycle (§4.1).
      if constexpr (kCountStats) ++top.stats->rejects;
    }
  };

  for (const LeafStep& step : steps_) {
    for (std::uint16_t b = 0; b < step.opens; ++b) {
      const BlockRef& blk =
          blocks_[static_cast<std::size_t>(step.first_block) + b];
      sp->mask = 0;
      sp->kind = blk.kind;
      sp->have = false;
      if constexpr (kCountStats) sp->stats = stats + blk.stats_index;
      ++sp;
    }
    const int tid = perm[step.leaf_index];
    const Footprint* fp = candidates[static_cast<std::size_t>(tid)];
    if (fp != nullptr) combine(*fp, 1u << static_cast<unsigned>(tid));
    for (std::uint16_t c = 0; c < step.closes; ++c) {
      Frame& done = *--sp;
      if (done.have) {
        if (sp == scratch) {
          root.packet = done.fp;
          root.issued_mask = done.mask;
        } else {
          combine(done.fp, done.mask);
        }
      }
    }
  }
  CVMT_DCHECK(sp == scratch);
  return root;
}

template <bool kCountStats>
MergePlan::Eval MergePlan::select_linear(
    std::span<const Footprint* const> candidates, int rotation,
    MergeNodeStats* stats) const {
  const std::uint8_t* perm =
      leaf_tid_.data() + static_cast<std::size_t>(rotation) *
                             static_cast<std::size_t>(num_threads_);
  Footprint acc;
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < chain_.size(); ++i) {
    const int tid = perm[i];
    const Footprint* fp = candidates[static_cast<std::size_t>(tid)];
    if (fp == nullptr) continue;  // nothing offered on this input
    if (mask == 0) {
      // The highest-priority input seeds the packet unconditionally.
      acc = *fp;
      mask = 1u << static_cast<unsigned>(tid);
      continue;
    }
    const BlockRef& blk = chain_[i];
    if constexpr (kCountStats) ++stats[blk.stats_index].attempts;
    bool ok = false;
    switch (blk.kind) {
      case MergeKind::kCsmt:
        ok = Footprint::csmt_compatible(acc, *fp);
        break;
      case MergeKind::kSmt:
        ok = Footprint::smt_compatible(acc, *fp, config_);
        break;
      case MergeKind::kSelect:
        ok = false;  // never merges: the first offering input wins
        break;
    }
    if (ok) {
      acc.merge_with(*fp, config_);
      mask |= 1u << static_cast<unsigned>(tid);
    } else {
      if constexpr (kCountStats) ++stats[blk.stats_index].rejects;
    }
  }
  return {acc, mask};
}

MergePlan::Eval MergePlan::select(
    std::span<const Footprint* const> candidates, int rotation,
    Frame* scratch, MergeNodeStats* stats) const {
  CVMT_DCHECK(candidates.size() == static_cast<std::size_t>(num_threads_));
  CVMT_DCHECK(rotation >= 0 && rotation < num_threads_);

  // Fast path: with zero or one offering thread no merge check can fire
  // (the first non-empty input always seeds its block unconditionally), so
  // the decision is immediate and no stat counter moves either way.
  int offers = 0;
  int only = -1;
  for (std::size_t t = 0; t < candidates.size(); ++t) {
    if (candidates[t] != nullptr) {
      ++offers;
      only = static_cast<int>(t);
    }
  }
  if (offers == 0) return {};
  if (offers == 1)
    return {*candidates[static_cast<std::size_t>(only)],
            1u << static_cast<unsigned>(only)};

  return select_multi(candidates, rotation, scratch, stats);
}

MergePlan::Eval MergePlan::select_multi(
    std::span<const Footprint* const> candidates, int rotation,
    Frame* scratch, MergeNodeStats* stats) const {
  CVMT_DCHECK(candidates.size() == static_cast<std::size_t>(num_threads_));
  CVMT_DCHECK(rotation >= 0 && rotation < num_threads_);
  if (is_linear())
    return stats != nullptr
               ? select_linear<true>(candidates, rotation, stats)
               : select_linear<false>(candidates, rotation, stats);
  return stats != nullptr
             ? select_impl<true>(candidates, rotation, scratch, stats)
             : select_impl<false>(candidates, rotation, scratch, stats);
}

}  // namespace cvmt
