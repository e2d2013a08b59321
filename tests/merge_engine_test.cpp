// Tests of the per-cycle merge-engine semantics: greedy cascades, atomic
// tree groups and priority rotation. The parallel/serial equivalences are
// proved in merge_exhaustive_test.
#include <gtest/gtest.h>

#include <vector>

#include "core/merge_engine.hpp"

namespace cvmt {
namespace {

const MachineConfig kM = MachineConfig::vex4x4();

/// Footprint of an instruction with one ALU op in each listed cluster.
Footprint fp_clusters(std::initializer_list<int> clusters) {
  Instruction i;
  for (int c : clusters) i.add(make_alu(c, 0));
  return Footprint::of(i, kM);
}

/// Footprint of `n` ALU ops in cluster `c`.
Footprint fp_ops(int c, int n) {
  Instruction i;
  for (int s = 0; s < n; ++s) i.add(make_alu(c, s));
  return Footprint::of(i, kM);
}

using Candidates = std::vector<const Footprint*>;

MergeDecision select(MergeEngine& e, const Candidates& c) {
  return e.select(std::span<const Footprint* const>(c.data(), c.size()));
}

TEST(MergeEngine, SingleThreadPassthrough) {
  MergeEngine e(Scheme::single_thread(), kM);
  const Footprint f = fp_clusters({0});
  const MergeDecision d = select(e, {&f});
  EXPECT_EQ(d.issued_mask, 0b1u);
  EXPECT_EQ(d.num_issued, 1);
}

TEST(MergeEngine, SingleThreadStalled) {
  MergeEngine e(Scheme::single_thread(), kM);
  const MergeDecision d = select(e, {nullptr});
  EXPECT_EQ(d.issued_mask, 0u);
  EXPECT_EQ(d.num_issued, 0);
}

TEST(MergeEngine, RejectsWrongCandidateCount) {
  MergeEngine e(Scheme::parse("1S"), kM);
  const Footprint f = fp_clusters({0});
  EXPECT_THROW(select(e, {&f}), CheckError);
}

TEST(MergeEngine, SmtPairMergesCompatible) {
  MergeEngine e(Scheme::parse("1S"), kM, PriorityPolicy::kFixed);
  const Footprint a = fp_ops(0, 2), b = fp_ops(0, 2);
  const MergeDecision d = select(e, {&a, &b});
  EXPECT_EQ(d.issued_mask, 0b11u);
  EXPECT_EQ(d.packet.cluster(0).op_count, 4);
}

TEST(MergeEngine, SmtPairConflictIssuesPriorityThreadOnly) {
  MergeEngine e(Scheme::parse("1S"), kM, PriorityPolicy::kFixed);
  const Footprint a = fp_ops(0, 3), b = fp_ops(0, 2);  // 5 > 4-wide
  const MergeDecision d = select(e, {&a, &b});
  EXPECT_EQ(d.issued_mask, 0b01u);
}

TEST(MergeEngine, CsmtPairConflictAtClusterLevel) {
  MergeEngine e(Scheme::parse("1C"), kM, PriorityPolicy::kFixed);
  const Footprint a = fp_ops(0, 1), b = fp_ops(0, 1);
  EXPECT_EQ(select(e, {&a, &b}).issued_mask, 0b01u);
  const Footprint c = fp_ops(1, 1);
  EXPECT_EQ(select(e, {&a, &c}).issued_mask, 0b11u);
}

TEST(MergeEngine, EmptyInstructionAlwaysMerges) {
  MergeEngine e(Scheme::parse("1C"), kM, PriorityPolicy::kFixed);
  const Footprint busy = fp_clusters({0, 1, 2, 3});
  const Footprint empty = Footprint::of(Instruction{}, kM);
  EXPECT_EQ(select(e, {&busy, &empty}).issued_mask, 0b11u);
}

TEST(MergeEngine, StalledThreadIsSkippedInCascade) {
  MergeEngine e(Scheme::parse("3CCC"), kM, PriorityPolicy::kFixed);
  const Footprint a = fp_clusters({0});
  const Footprint c = fp_clusters({1});
  const MergeDecision d = select(e, {&a, nullptr, &c, nullptr});
  EXPECT_EQ(d.issued_mask, 0b101u);
}

TEST(MergeEngine, CascadeSkipsConflictAndContinues) {
  MergeEngine e(Scheme::parse("3CCC"), kM, PriorityPolicy::kFixed);
  const Footprint t0 = fp_clusters({0});
  const Footprint t1 = fp_clusters({0});  // conflicts with t0
  const Footprint t2 = fp_clusters({1});  // merges after the skip
  const Footprint t3 = fp_clusters({2});
  const MergeDecision d = select(e, {&t0, &t1, &t2, &t3});
  EXPECT_EQ(d.issued_mask, 0b1101u);
  EXPECT_EQ(d.num_issued, 3);
}

TEST(MergeEngine, TreeGroupDropsAtomically) {
  // 2CC: (T0 C T1) C (T2 C T3). Group B merges T2{2},T3{0} into {0,2},
  // which conflicts with group A {0,1} — the WHOLE group stalls, although
  // T2 alone would have merged (paper §4.1 last paragraph).
  MergeEngine tree(Scheme::parse("2CC"), kM, PriorityPolicy::kFixed);
  const Footprint t0 = fp_clusters({0});
  const Footprint t1 = fp_clusters({1});
  const Footprint t2 = fp_clusters({2});
  const Footprint t3 = fp_clusters({0});
  EXPECT_EQ(select(tree, {&t0, &t1, &t2, &t3}).issued_mask, 0b0011u);

  // The cascade 3CCC instead skips only T3.
  MergeEngine cascade(Scheme::parse("3CCC"), kM, PriorityPolicy::kFixed);
  EXPECT_EQ(select(cascade, {&t0, &t1, &t2, &t3}).issued_mask, 0b0111u);
}

TEST(MergeEngine, MixedSchemeMergesSmtFirst) {
  // 2SC3 merges T0,T1 at operation level, then cluster-level with T2,T3.
  MergeEngine e(Scheme::parse("2SC3"), kM, PriorityPolicy::kFixed);
  const Footprint t0 = fp_ops(0, 2);
  const Footprint t1 = fp_ops(0, 2);     // SMT-merges with t0 (4 ops fit)
  const Footprint t2 = fp_clusters({1});
  const Footprint t3 = fp_clusters({0});  // cluster 0 busy -> dropped
  const MergeDecision d = select(e, {&t0, &t1, &t2, &t3});
  EXPECT_EQ(d.issued_mask, 0b0111u);
}

TEST(MergeEngine, PureCsmtCannotDoOperationLevelMerge) {
  MergeEngine e(Scheme::parse("3CCC"), kM, PriorityPolicy::kFixed);
  const Footprint t0 = fp_ops(0, 2);
  const Footprint t1 = fp_ops(0, 2);
  const Footprint t2 = fp_clusters({1});
  const Footprint t3 = fp_clusters({2});
  // t1 shares cluster 0 with t0: skipped by every CSMT level.
  EXPECT_EQ(select(e, {&t0, &t1, &t2, &t3}).issued_mask, 0b1101u);
}

TEST(MergeEngine, RoundRobinRotationAlternatesWinner) {
  MergeEngine e(Scheme::parse("1C"), kM, PriorityPolicy::kRoundRobin);
  const Footprint a = fp_ops(0, 1), b = fp_ops(0, 1);
  EXPECT_EQ(select(e, {&a, &b}).issued_mask, 0b01u);  // rotation 0: T0
  EXPECT_EQ(select(e, {&a, &b}).issued_mask, 0b10u);  // rotation 1: T1
  EXPECT_EQ(select(e, {&a, &b}).issued_mask, 0b01u);
}

TEST(MergeEngine, FixedPolicyStarves) {
  MergeEngine e(Scheme::parse("1C"), kM, PriorityPolicy::kFixed);
  const Footprint a = fp_ops(0, 1), b = fp_ops(0, 1);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(select(e, {&a, &b}).issued_mask, 0b01u);
}

TEST(MergeEngine, NodeStatsCountAttemptsAndRejects) {
  MergeEngine e(Scheme::parse("1C"), kM, PriorityPolicy::kFixed);
  const Footprint a = fp_ops(0, 1), b0 = fp_ops(0, 1), b1 = fp_ops(1, 1);
  select(e, {&a, &b0});  // reject
  select(e, {&a, &b1});  // accept
  select(e, {&a, nullptr});  // no attempt (nothing offered)
  ASSERT_EQ(e.node_stats().size(), 1u);
  EXPECT_EQ(e.node_stats()[0].attempts, 2u);
  EXPECT_EQ(e.node_stats()[0].rejects, 1u);
  EXPECT_DOUBLE_EQ(e.node_stats()[0].reject_rate(), 0.5);
}

TEST(MergeEngine, IssuedHistogramTracksWidth) {
  MergeEngine e(Scheme::parse("3CCC"), kM, PriorityPolicy::kFixed);
  const Footprint t0 = fp_clusters({0});
  const Footprint t1 = fp_clusters({1});
  select(e, {&t0, &t1, nullptr, nullptr});
  select(e, {&t0, nullptr, nullptr, nullptr});
  EXPECT_EQ(e.issued_histogram().bucket(2), 1u);
  EXPECT_EQ(e.issued_histogram().bucket(1), 1u);
  EXPECT_EQ(e.cycles(), 2u);
}

TEST(MergeEngine, PacketFootprintIsUnionOfIssued) {
  MergeEngine e(Scheme::parse("3CCC"), kM, PriorityPolicy::kFixed);
  const Footprint t0 = fp_clusters({0});
  const Footprint t1 = fp_clusters({2});
  const MergeDecision d = select(e, {&t0, &t1, nullptr, nullptr});
  EXPECT_EQ(d.packet.cluster_mask(), 0b0101u);
  EXPECT_EQ(d.packet.total_ops(), 2);
}

TEST(MergeEngine, ImtIssuesExactlyOneThread) {
  MergeEngine e(Scheme::imt(4), kM, PriorityPolicy::kFixed);
  const Footprint a = fp_clusters({0});
  const Footprint b = fp_clusters({1});  // disjoint, but IMT never merges
  const Footprint c = fp_clusters({2});
  const MergeDecision d = select(e, {&a, &b, &c, nullptr});
  EXPECT_EQ(d.issued_mask, 0b0001u);
  EXPECT_EQ(d.num_issued, 1);
}

TEST(MergeEngine, ImtSkipsStalledLeader) {
  MergeEngine e(Scheme::imt(4), kM, PriorityPolicy::kFixed);
  const Footprint b = fp_clusters({1});
  const MergeDecision d = select(e, {nullptr, &b, nullptr, nullptr});
  EXPECT_EQ(d.issued_mask, 0b0010u);
}

TEST(MergeEngine, ImtRoundRobinInterleaves) {
  MergeEngine e(Scheme::imt(2), kM, PriorityPolicy::kRoundRobin);
  const Footprint a = fp_clusters({0}), b = fp_clusters({1});
  EXPECT_EQ(select(e, {&a, &b}).issued_mask, 0b01u);
  EXPECT_EQ(select(e, {&a, &b}).issued_mask, 0b10u);
  EXPECT_EQ(select(e, {&a, &b}).issued_mask, 0b01u);
}

TEST(MergeEngine, BmtSticksUntilLeaderStalls) {
  // IMT scheme + sticky-on-stall policy = Block MultiThreading.
  MergeEngine e(Scheme::imt(2), kM, PriorityPolicy::kStickyOnStall);
  const Footprint a = fp_clusters({0}), b = fp_clusters({1});
  EXPECT_EQ(select(e, {&a, &b}).issued_mask, 0b01u);
  EXPECT_EQ(select(e, {&a, &b}).issued_mask, 0b01u);  // still thread 0
  // Thread 0 stalls: thread 1 issues and takes the lead.
  EXPECT_EQ(select(e, {nullptr, &b}).issued_mask, 0b10u);
  EXPECT_EQ(select(e, {&a, &b}).issued_mask, 0b10u);  // lead stays with 1
  // Thread 1 stalls: the lead moves back.
  EXPECT_EQ(select(e, {&a, nullptr}).issued_mask, 0b01u);
  EXPECT_EQ(select(e, {&a, &b}).issued_mask, 0b01u);
}

}  // namespace
}  // namespace cvmt
