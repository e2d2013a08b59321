#include "core/merge_engine.hpp"

#include <bit>

namespace cvmt {

MergeEngine::MergeEngine(std::shared_ptr<const MergePlan> plan,
                         PriorityPolicy policy, StatsLevel stats_level,
                         EvalMode eval_mode)
    : plan_(std::move(plan)),
      policy_(policy),
      stats_level_(stats_level),
      eval_mode_(eval_mode),
      scratch_(plan_->make_scratch()),
      node_stats_(plan_->make_stats()),
      issued_histogram_(static_cast<std::size_t>(plan_->num_threads()) + 1) {}

MergeEngine::MergeEngine(Scheme scheme, const MachineConfig& config,
                         PriorityPolicy policy, StatsLevel stats_level,
                         EvalMode eval_mode)
    : MergeEngine(std::make_shared<const MergePlan>(std::move(scheme), config),
                  policy, stats_level, eval_mode) {}

MergePlan::Eval MergeEngine::eval_tree(const Scheme::Node& node,
                                       const Footprint* const* candidates,
                                       int rotation, std::size_t& node_id,
                                       bool count_stats) {
  if (node.is_leaf()) {
    // Rotation maps priority port p to hardware thread (p + rotation) % N.
    const int n = plan_->num_threads();
    const int tid = (node.port + rotation) % n;
    const Footprint* fp = candidates[tid];
    if (fp == nullptr) return {};
    return {*fp, 1u << tid};
  }

  MergeNodeStats& stats = node_stats_[node_id++];
  MergePlan::Eval acc;
  bool have_acc = false;
  for (const auto& child : node.children) {
    MergePlan::Eval r =
        eval_tree(child, candidates, rotation, node_id, count_stats);
    if (r.issued_mask == 0) continue;  // nothing offered on this input
    if (!have_acc) {
      acc = r;  // highest-priority input seeds the packet unconditionally
      have_acc = true;
      continue;
    }
    if (count_stats) ++stats.attempts;
    bool ok = false;
    switch (node.kind) {
      case MergeKind::kCsmt:
        ok = Footprint::csmt_compatible(acc.packet, r.packet);
        break;
      case MergeKind::kSmt:
        ok = Footprint::smt_fits(acc.packet, r.packet, plan_->smt_width());
        break;
      case MergeKind::kSelect:
        ok = false;  // never merges: the first offering input wins
        break;
    }
    if (ok) {
      acc.packet.merge_with(r.packet, plan_->machine());
      acc.issued_mask |= r.issued_mask;
    } else {
      // The whole input packet is dropped: if it was itself a merged group
      // (tree schemes), every thread in it stalls this cycle (§4.1).
      if (count_stats) ++stats.rejects;
    }
  }
  return acc;
}

MergePlan::Eval MergeEngine::select_tree(const Footprint* const* candidates,
                                         int rotation) {
  std::size_t node_id = 0;
  const MergePlan::Eval r =
      eval_tree(plan_->scheme().root(), candidates, rotation, node_id,
                stats_level_ == StatsLevel::kFull);
  CVMT_DCHECK(node_id == node_stats_.size());
  return r;
}

}  // namespace cvmt
