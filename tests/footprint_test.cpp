// Tests of the merge-compatibility predicates, including the paper's Fig 1
// worked example and randomized structural properties.
#include <gtest/gtest.h>

#include <bit>

#include "isa/footprint.hpp"
#include "support/rng.hpp"

namespace cvmt {
namespace {

const MachineConfig kM8 = MachineConfig::vex4x2();   // Fig 1 machine
const MachineConfig kM16 = MachineConfig::vex4x4();  // evaluation machine

Footprint fp(const Instruction& i, const MachineConfig& m) {
  return Footprint::of(i, m);
}

// ---------------------------------------------------------------- Fig 1
// On the 8-issue machine: slot 0 carries the multiplier, slot 1 the LSU
// and branch unit, ALU ops run anywhere.

TEST(MergeFig1, PairI_NeitherSmtNorCsmt) {
  // Both threads need cluster 0's LSU slot: operation-level conflict in a
  // shared cluster kills both merge kinds.
  Instruction t0, t1;
  t0.add(make_alu(0, 0));
  t0.add(make_load(0, 1, 0x10));
  t0.add(make_alu(1, 0));
  t1.add(make_store(0, 1, 0x20));
  t1.add(make_alu(1, 1));
  ASSERT_EQ(t0.validate(kM8), "");
  ASSERT_EQ(t1.validate(kM8), "");
  EXPECT_FALSE(Footprint::csmt_compatible(fp(t0, kM8), fp(t1, kM8)));
  EXPECT_FALSE(Footprint::smt_compatible(fp(t0, kM8), fp(t1, kM8), kM8));
}

TEST(MergeFig1, PairII_SmtOnly) {
  // Threads share clusters 0, 2 and 3 (CSMT conflict) but their operations
  // interleave without fixed-slot collisions (SMT merges).
  Instruction t0, t1;
  t0.add(make_alu(0, 0));
  t0.add(make_load(2, 1, 0x30));
  t0.add(make_alu(3, 0));
  t1.add(make_store(0, 1, 0x40));
  t1.add(make_mul(2, 0));
  t1.add(make_alu(3, 0));  // reroutable to slot 1
  ASSERT_EQ(t0.validate(kM8), "");
  ASSERT_EQ(t1.validate(kM8), "");
  EXPECT_FALSE(Footprint::csmt_compatible(fp(t0, kM8), fp(t1, kM8)));
  EXPECT_TRUE(Footprint::smt_compatible(fp(t0, kM8), fp(t1, kM8), kM8));

  const Instruction merged = route_merge(t0, t1, kM8);
  EXPECT_EQ(merged.validate(kM8), "");
  EXPECT_EQ(merged.op_count(), t0.op_count() + t1.op_count());
}

TEST(MergeFig1, PairIII_CsmtAndSmt) {
  // First instruction touches only clusters 1 and 2; the other uses 0 and
  // 3: disjoint cluster footprints merge under both schemes.
  Instruction t0, t1;
  t0.add(make_alu(1, 0));   // shl
  t0.add(make_alu(2, 0));   // mov
  t1.add(make_load(0, 1, 0x50));
  t1.add(make_alu(0, 0));
  t1.add(make_store(3, 1, 0x60));
  t1.add(make_mul(3, 0));
  ASSERT_EQ(t0.validate(kM8), "");
  ASSERT_EQ(t1.validate(kM8), "");
  EXPECT_TRUE(Footprint::csmt_compatible(fp(t0, kM8), fp(t1, kM8)));
  EXPECT_TRUE(Footprint::smt_compatible(fp(t0, kM8), fp(t1, kM8), kM8));
}

// ------------------------------------------------------------ Unit cases

TEST(Footprint, EmptyInstructionHasEmptyFootprint) {
  const Footprint f = fp(Instruction{}, kM16);
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.cluster_mask(), 0u);
  EXPECT_EQ(f.total_ops(), 0);
}

TEST(Footprint, ClusterMaskAndCounts) {
  Instruction i;
  i.add(make_alu(0, 0));
  i.add(make_alu(0, 1));
  i.add(make_load(2, 2, 0));
  const Footprint f = fp(i, kM16);
  EXPECT_EQ(f.cluster_mask(), 0b0101u);
  EXPECT_EQ(f.cluster(0).op_count, 2);
  EXPECT_EQ(f.cluster(0).fixed_mask, 0);  // ALUs are reroutable
  EXPECT_EQ(f.cluster(2).op_count, 1);
  EXPECT_EQ(f.cluster(2).fixed_mask, 0b0100);
  EXPECT_EQ(f.total_ops(), 3);
}

TEST(Footprint, EmptyMergesWithAnythingUnderBothKinds) {
  Instruction busy;
  for (int c = 0; c < 4; ++c)
    for (int s = 0; s < 4; ++s) busy.add(make_alu(c, s));
  const Footprint fb = fp(busy, kM16);
  const Footprint fe = fp(Instruction{}, kM16);
  EXPECT_TRUE(Footprint::csmt_compatible(fb, fe));
  EXPECT_TRUE(Footprint::smt_compatible(fb, fe, kM16));
}

TEST(Footprint, SmtRejectsIssueWidthOverflow) {
  Instruction a, b;
  for (int s = 0; s < 3; ++s) a.add(make_alu(0, s));
  b.add(make_alu(0, 0));
  b.add(make_alu(0, 1));
  // 3 + 2 = 5 ops in a 4-wide cluster.
  EXPECT_FALSE(Footprint::smt_compatible(fp(a, kM16), fp(b, kM16), kM16));
}

TEST(Footprint, SmtAcceptsExactFit) {
  Instruction a, b;
  for (int s = 0; s < 3; ++s) a.add(make_alu(0, s));
  b.add(make_alu(0, 0));
  EXPECT_TRUE(Footprint::smt_compatible(fp(a, kM16), fp(b, kM16), kM16));
}

TEST(Footprint, SmtRejectsFixedSlotCollision) {
  Instruction a, b;
  a.add(make_load(1, 2, 0x1));
  b.add(make_store(1, 2, 0x2));
  // Only 2 ops in a 4-wide cluster, but both need the LSU slot.
  EXPECT_FALSE(Footprint::smt_compatible(fp(a, kM16), fp(b, kM16), kM16));
}

TEST(Footprint, SmtAllowsDistinctFixedUnits) {
  Instruction a, b;
  a.add(make_mul(1, 0));
  a.add(make_load(1, 2, 0x1));
  b.add(make_mul(1, 1));
  b.add(make_branch(1, 3, false));
  EXPECT_TRUE(Footprint::smt_compatible(fp(a, kM16), fp(b, kM16), kM16));
}

TEST(Footprint, SmtHonoursPerClusterWidthsOnHeterogeneousMachines) {
  // Cluster 0 is 4-wide, cluster 1 only 2-wide: the same 2+1 op mix that
  // fits cluster 0 overflows cluster 1.
  const ClusterShape shapes[2] = {
      {4, 0b0011, 0b0100, 0b1000},
      {2, 0b01, 0b10, 0b10},
  };
  const MachineConfig het = MachineConfig::heterogeneous_of(shapes, 2);
  for (int c = 0; c < 2; ++c) {
    Instruction a, b;
    a.add(make_alu(c, 0));
    a.add(make_alu(c, 1));
    b.add(make_alu(c, 0));
    const bool ok =
        Footprint::smt_compatible(fp(a, het), fp(b, het), het);
    EXPECT_EQ(ok, c == 0) << "cluster " << c;
  }
}

TEST(Footprint, HetDisjointClustersAlwaysSmtMerge) {
  const ClusterShape shapes[2] = {
      {4, 0b0011, 0b0100, 0b1000},
      {1, 0b1, 0b1, 0b1},
  };
  const MachineConfig het = MachineConfig::heterogeneous_of(shapes, 2);
  Instruction a, b;
  for (int s = 0; s < 4; ++s) a.add(make_alu(0, s));
  b.add(make_alu(1, 0));
  EXPECT_TRUE(Footprint::smt_compatible(fp(a, het), fp(b, het), het));
  // And the fixed-unit collision rule still applies on the narrow cluster.
  Instruction c, d;
  c.add(make_load(1, 0, 0x1));
  d.add(make_store(1, 0, 0x2));
  EXPECT_FALSE(Footprint::smt_compatible(fp(c, het), fp(d, het), het));
}

TEST(Footprint, CsmtIsClusterGranular) {
  Instruction a, b;
  a.add(make_alu(0, 0));
  b.add(make_alu(0, 3));  // same cluster, different slot: still a conflict
  EXPECT_FALSE(Footprint::csmt_compatible(fp(a, kM16), fp(b, kM16)));
  Instruction c;
  c.add(make_alu(1, 0));
  EXPECT_TRUE(Footprint::csmt_compatible(fp(a, kM16), fp(c, kM16)));
}

TEST(Footprint, MergeWithAccumulatesCountsAndMask) {
  Instruction a, b;
  a.add(make_alu(0, 0));
  a.add(make_load(1, 2, 0));
  b.add(make_alu(0, 1));
  Footprint fa = fp(a, kM16);
  fa.merge_with(fp(b, kM16), kM16);
  EXPECT_EQ(fa.cluster_mask(), 0b0011u);
  EXPECT_EQ(fa.cluster(0).op_count, 2);
  EXPECT_EQ(fa.total_ops(), 3);
}

TEST(RouteMerge, MovesDisplacedAluOps) {
  Instruction a, b;
  a.add(make_alu(0, 0));
  b.add(make_alu(0, 0));  // same preferred slot; must be rerouted
  const Instruction merged = route_merge(a, b, kM16);
  EXPECT_EQ(merged.validate(kM16), "");
  EXPECT_EQ(merged.op_count(), 2u);
}

TEST(RouteMerge, KeepsFixedOpsInPlace) {
  Instruction a, b;
  a.add(make_load(2, 2, 0xAA));
  b.add(make_mul(2, 0));
  const Instruction merged = route_merge(a, b, kM16);
  EXPECT_EQ(merged.validate(kM16), "");
  bool found_load = false, found_mul = false;
  for (const Operation& op : merged) {
    if (op.kind == OpKind::kLoad) {
      EXPECT_EQ(op.slot, 2);
      found_load = true;
    }
    if (op.kind == OpKind::kMul) {
      EXPECT_EQ(op.slot, 0);
      found_mul = true;
    }
  }
  EXPECT_TRUE(found_load && found_mul);
}

TEST(RouteMerge, ThrowsOnIncompatiblePackets) {
  Instruction a, b;
  a.add(make_load(0, 2, 0x1));
  b.add(make_store(0, 2, 0x2));
  EXPECT_THROW((void)route_merge(a, b, kM16), CheckError);
}

// --------------------------------------------------- Random properties

/// Generates a random valid instruction (placement-legal by construction).
Instruction random_instruction(Xoshiro256& rng, const MachineConfig& m,
                               int max_ops) {
  Instruction instr;
  std::uint32_t occupied[kMaxClusters] = {};
  const int k = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(max_ops) + 1));
  for (int j = 0; j < k; ++j) {
    const OpKind kinds[] = {OpKind::kAlu, OpKind::kAlu, OpKind::kAlu,
                            OpKind::kMul, OpKind::kLoad, OpKind::kStore,
                            OpKind::kBranch};
    const OpKind kind = kinds[rng.next_below(std::size(kinds))];
    const int c = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(m.num_clusters)));
    const std::uint32_t free = m.slots_for(kind, c) & ~occupied[c];
    if (free == 0) continue;
    const int slot = std::countr_zero(free);
    occupied[c] |= 1u << slot;
    Operation op;
    op.kind = kind;
    op.cluster = static_cast<std::uint8_t>(c);
    op.slot = static_cast<std::uint8_t>(slot);
    instr.add(op);
  }
  return instr;
}

class FootprintPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FootprintPropertyTest, CsmtCompatibleImpliesSmtCompatible) {
  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const Instruction a = random_instruction(rng, kM16, 10);
    const Instruction b = random_instruction(rng, kM16, 10);
    if (Footprint::csmt_compatible(fp(a, kM16), fp(b, kM16))) {
      EXPECT_TRUE(Footprint::smt_compatible(fp(a, kM16), fp(b, kM16), kM16))
          << "CSMT-mergeable pair must be SMT-mergeable";
    }
  }
}

TEST_P(FootprintPropertyTest, RoutedMergeIsValidAndPreservesOps) {
  Xoshiro256 rng(GetParam() ^ 0x5555);
  for (int trial = 0; trial < 200; ++trial) {
    const Instruction a = random_instruction(rng, kM16, 10);
    const Instruction b = random_instruction(rng, kM16, 10);
    if (!Footprint::smt_compatible(fp(a, kM16), fp(b, kM16), kM16)) continue;
    const Instruction merged = route_merge(a, b, kM16);
    EXPECT_EQ(merged.validate(kM16), "");
    EXPECT_EQ(merged.op_count(), a.op_count() + b.op_count());
  }
}

TEST_P(FootprintPropertyTest, MergedFootprintMatchesRoutedPacket) {
  Xoshiro256 rng(GetParam() ^ 0xAAAA);
  for (int trial = 0; trial < 200; ++trial) {
    const Instruction a = random_instruction(rng, kM16, 8);
    const Instruction b = random_instruction(rng, kM16, 8);
    if (!Footprint::smt_compatible(fp(a, kM16), fp(b, kM16), kM16)) continue;
    Footprint merged_fp = fp(a, kM16);
    merged_fp.merge_with(fp(b, kM16), kM16);
    const Footprint routed_fp = fp(route_merge(a, b, kM16), kM16);
    EXPECT_EQ(merged_fp.cluster_mask(), routed_fp.cluster_mask());
    EXPECT_EQ(merged_fp.total_ops(), routed_fp.total_ops());
    for (int c = 0; c < kM16.num_clusters; ++c)
      EXPECT_EQ(merged_fp.cluster(c).op_count, routed_fp.cluster(c).op_count);
  }
}

TEST_P(FootprintPropertyTest, CompatibilityIsSymmetric) {
  Xoshiro256 rng(GetParam() ^ 0x1234);
  for (int trial = 0; trial < 200; ++trial) {
    const Instruction a = random_instruction(rng, kM16, 10);
    const Instruction b = random_instruction(rng, kM16, 10);
    const Footprint faa = fp(a, kM16), fbb = fp(b, kM16);
    EXPECT_EQ(Footprint::csmt_compatible(faa, fbb),
              Footprint::csmt_compatible(fbb, faa));
    EXPECT_EQ(Footprint::smt_compatible(faa, fbb, kM16),
              Footprint::smt_compatible(fbb, faa, kM16));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FootprintPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace cvmt
