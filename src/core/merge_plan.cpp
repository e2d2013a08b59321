#include "core/merge_plan.hpp"

#include <algorithm>
#include <utility>

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

MergePlan::MergePlan(Scheme scheme, const MachineConfig& config)
    : scheme_(std::move(scheme)),
      config_(config),
      smt_width_(Footprint::smt_width(config)),
      num_threads_(scheme_.num_threads()) {
  config_.validate();

  FlattenState st;
  flatten(scheme_.root(), st, /*depth=*/1);
  nodes_ = std::move(st.nodes);
  stats_template_ = std::move(st.stats);
  depth_ = st.max_depth;
  CVMT_CHECK(static_cast<int>(st.ports.size()) == num_threads_);
  CVMT_CHECK_MSG(nodes_.size() < (1u << 16), "scheme too large for a plan");

  // Compile the node array into leaf steps: simulate the traversal stack
  // once so the per-cycle pass needs no subtree-extent comparisons. Along
  // the way, record which block is innermost-open at each leaf — for
  // left-deep chains that is all the chain fold needs.
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

  // The decision signature encodes exactly what an evaluation reads
  // besides the candidates: the leaf->thread tables (thread count + ports) and,
  // per evaluator, the fold kinds or the step program.
  signature_ = (is_linear() ? "L" : "T") + std::to_string(num_threads_) + ':';
  if (is_linear()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) signature_ += to_char(chain_[i].kind);
      signature_ += std::to_string(st.ports[i]);
    }
  } else {
    for (const LeafStep& step : steps_) {
      for (std::uint16_t b = 0; b < step.opens; ++b)
        signature_ += to_char(blocks_[step.first_block + b].kind);
      signature_ += std::to_string(st.ports[step.leaf_index]);
      signature_.append(step.closes, ')');
      signature_ += ',';
    }
  }
}

MergePlan::Kernel MergePlan::kernel() const {
  return {leaf_tid_.data(),
          is_linear() ? chain_.data() : nullptr,
          steps_.data(),
          steps_.data() + steps_.size(),
          blocks_.data(),
          &config_,
          smt_width_,
          num_threads_};
}

}  // namespace cvmt
