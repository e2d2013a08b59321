// Unit tests for the ISA layer: machine description, operations and VLIW
// instruction validity.
#include <gtest/gtest.h>

#include "isa/instruction.hpp"
#include "isa/machine_config.hpp"
#include "isa/operation.hpp"

namespace cvmt {
namespace {

TEST(OpKind, FixedSlotClassification) {
  EXPECT_FALSE(is_fixed_slot(OpKind::kAlu));
  EXPECT_TRUE(is_fixed_slot(OpKind::kMul));
  EXPECT_TRUE(is_fixed_slot(OpKind::kLoad));
  EXPECT_TRUE(is_fixed_slot(OpKind::kStore));
  EXPECT_TRUE(is_fixed_slot(OpKind::kBranch));
}

TEST(OpKind, MemoryClassification) {
  EXPECT_TRUE(is_memory(OpKind::kLoad));
  EXPECT_TRUE(is_memory(OpKind::kStore));
  EXPECT_FALSE(is_memory(OpKind::kAlu));
  EXPECT_FALSE(is_memory(OpKind::kBranch));
}

TEST(OpKind, Names) {
  EXPECT_EQ(to_string(OpKind::kMul), "mpy");
  EXPECT_EQ(to_string(OpKind::kLoad), "ld");
  EXPECT_EQ(to_string(OpKind::kBranch), "br");
}

TEST(MachineConfig, Vex4x4IsThePaperMachine) {
  const MachineConfig m = MachineConfig::vex4x4();
  EXPECT_EQ(m.num_clusters, 4);
  EXPECT_TRUE(m.uniform());
  EXPECT_EQ(m.cluster_issue(0), 4);
  EXPECT_EQ(m.total_issue_width(), 16);
  EXPECT_EQ(m.mem_latency, 2);
  EXPECT_EQ(m.mul_latency, 2);
  EXPECT_EQ(m.taken_branch_penalty, 2);
}

TEST(MachineConfig, Vex4x4SlotCapabilities) {
  const MachineConfig m = MachineConfig::vex4x4();
  EXPECT_EQ(m.slots_for(OpKind::kAlu, 0), 0b1111u);    // any slot
  EXPECT_EQ(m.slots_for(OpKind::kMul, 0), 0b0011u);    // 2 multipliers
  EXPECT_EQ(m.slots_for(OpKind::kLoad, 0), 0b0100u);   // 1 LSU
  EXPECT_EQ(m.slots_for(OpKind::kStore, 0), 0b0100u);  // shares the LSU
  EXPECT_EQ(m.slots_for(OpKind::kBranch, 0), 0b1000u);
}

TEST(MachineConfig, LatencyTable) {
  const MachineConfig m = MachineConfig::vex4x4();
  EXPECT_EQ(m.latency_of(OpKind::kAlu), 1);
  EXPECT_EQ(m.latency_of(OpKind::kMul), 2);
  EXPECT_EQ(m.latency_of(OpKind::kLoad), 2);
  EXPECT_EQ(m.latency_of(OpKind::kStore), 2);
}

TEST(MachineConfig, Vex4x2IsTheFig1Machine) {
  const MachineConfig m = MachineConfig::vex4x2();
  EXPECT_EQ(m.num_clusters, 4);
  EXPECT_EQ(m.cluster_issue(0), 2);
  EXPECT_EQ(m.total_issue_width(), 8);
}

TEST(MachineConfig, ClusteredFactoryCoversShapes) {
  for (int clusters : {1, 2, 4, 8}) {
    for (int width : {1, 2, 3, 4, 8}) {
      if (clusters * width > kMaxTotalOps) continue;
      const MachineConfig m = MachineConfig::clustered(clusters, width);
      EXPECT_EQ(m.num_clusters, clusters);
      EXPECT_TRUE(m.uniform());
      EXPECT_EQ(m.cluster_issue(0), width);
      EXPECT_NO_THROW(m.validate());
      // Every op kind must be executable somewhere.
      for (OpKind k : {OpKind::kAlu, OpKind::kMul, OpKind::kLoad,
                       OpKind::kStore, OpKind::kBranch})
        EXPECT_NE(m.slots_for(k, 0), 0u);
    }
  }
}

TEST(MachineConfig, ClusteredMatchesNamedConfigs) {
  EXPECT_TRUE(MachineConfig::clustered(4, 4) == MachineConfig::vex4x4());
  const MachineConfig m2 = MachineConfig::clustered(4, 2);
  EXPECT_EQ(m2.total_issue_width(), MachineConfig::vex4x2().total_issue_width());
}

TEST(MachineConfig, RejectsSlotMaskBeyondWidth) {
  MachineConfig m = MachineConfig::vex4x4();
  m.per_cluster[0].mem_slot_mask = 1u << 5;  // no slot 5 on a 4-issue cluster
  EXPECT_THROW(m.validate(), CheckError);
}

TEST(MachineConfig, RejectsZeroCapability) {
  MachineConfig m = MachineConfig::vex4x4();
  for (ClusterShape& s : m.per_cluster) s.mul_slot_mask = 0;
  EXPECT_THROW(m.validate(), CheckError);
}

TEST(MachineConfig, RejectsOutOfRangeShape) {
  MachineConfig m = MachineConfig::vex4x4();
  m.num_clusters = kMaxClusters + 1;
  EXPECT_THROW(m.validate(), CheckError);
  m = MachineConfig::vex4x4();
  m.per_cluster[0].issue_width = 0;
  EXPECT_THROW(m.validate(), CheckError);
}

TEST(MachineConfig, EqualityComparesAllFields) {
  const MachineConfig a = MachineConfig::vex4x4();
  MachineConfig b = a;
  EXPECT_TRUE(a == b);
  b.mem_latency = 3;
  EXPECT_FALSE(a == b);
}

TEST(MachineConfig, NarrowClustersShareSlotsAndStillValidate) {
  // Below 4-issue there is no room for dedicated LSU and branch slots:
  // a 2-wide cluster shares slot 1 between them, a 1-wide cluster runs
  // everything through its single slot. validate() must accept both.
  const MachineConfig w2 = MachineConfig::clustered(4, 2);
  const ClusterShape& s2 = w2.per_cluster[0];
  EXPECT_EQ(s2.mul_slot_mask, 0b01u);
  EXPECT_EQ(s2.mem_slot_mask, 0b10u);
  EXPECT_EQ(s2.branch_slot_mask, 0b10u);
  EXPECT_EQ(s2.mem_slot_mask, s2.branch_slot_mask);  // shared slot
  EXPECT_NO_THROW(w2.validate());

  const MachineConfig w1 = MachineConfig::clustered(2, 1);
  const ClusterShape& s1 = w1.per_cluster[0];
  EXPECT_EQ(s1.mul_slot_mask, 0b1u);
  EXPECT_EQ(s1.mem_slot_mask, 0b1u);
  EXPECT_EQ(s1.branch_slot_mask, 0b1u);
  EXPECT_NO_THROW(w1.validate());

  // At width 3 each unit gets its own (single) slot: no sharing needed.
  const MachineConfig w3 = MachineConfig::clustered(2, 3);
  const ClusterShape& s3 = w3.per_cluster[0];
  EXPECT_EQ(s3.mul_slot_mask & s3.mem_slot_mask, 0u);
  EXPECT_EQ(s3.mem_slot_mask & s3.branch_slot_mask, 0u);
  EXPECT_NO_THROW(w3.validate());
}

TEST(MachineConfig, HeterogeneousFactoryAndAccessors) {
  const ClusterShape shapes[3] = {
      {4, 0b0011, 0b0100, 0b1000},
      {2, 0b01, 0b10, 0b10},
      {1, 0b0, 0b1, 0b1},  // no multiplier here
  };
  const MachineConfig m = MachineConfig::heterogeneous_of(shapes, 3);
  EXPECT_FALSE(m.uniform());
  EXPECT_EQ(m.num_clusters, 3);
  EXPECT_EQ(m.cluster_issue(0), 4);
  EXPECT_EQ(m.cluster_issue(1), 2);
  EXPECT_EQ(m.cluster_issue(2), 1);
  EXPECT_EQ(m.max_issue_per_cluster(), 4);
  EXPECT_EQ(m.total_issue_width(), 7);
  EXPECT_EQ(m.slots_for(OpKind::kMul, 0), 0b0011u);
  EXPECT_EQ(m.slots_for(OpKind::kMul, 2), 0u);
  EXPECT_EQ(m.slots_for(OpKind::kAlu, 1), 0b11u);
  EXPECT_EQ(m.slots_for(OpKind::kLoad, 2), 0b1u);
}

TEST(MachineConfig, HeterogeneousValidateNeedsEachCapabilitySomewhere) {
  // No cluster has a multiplier: machine-wide capability check fires.
  const ClusterShape shapes[2] = {
      {2, 0b00, 0b10, 0b10},
      {2, 0b00, 0b10, 0b10},
  };
  EXPECT_THROW((void)MachineConfig::heterogeneous_of(shapes, 2), CheckError);
}

TEST(MachineConfig, HeterogeneousValidateBoundsTotalWidth) {
  ClusterShape shapes[8];
  for (ClusterShape& s : shapes)
    s = ClusterShape{8, 0b0011, 0b0100, 1u << 7};
  // 8 clusters x 8-wide = 64 ops > kMaxTotalOps.
  EXPECT_THROW((void)MachineConfig::heterogeneous_of(shapes, 8), CheckError);
}

TEST(MachineConfig, HeterogeneousEqualityComparesActiveClusters) {
  const ClusterShape shapes[2] = {
      {4, 0b0011, 0b0100, 0b1000},
      {2, 0b01, 0b10, 0b10},
  };
  const MachineConfig a = MachineConfig::heterogeneous_of(shapes, 2);
  MachineConfig b = a;
  EXPECT_TRUE(a == b);
  b.per_cluster[1].issue_width = 1;
  b.per_cluster[1].mul_slot_mask = 0b1;
  b.per_cluster[1].mem_slot_mask = 0b1;
  b.per_cluster[1].branch_slot_mask = 0b1;
  EXPECT_FALSE(a == b);
  // Machines of different cluster shapes never compare equal.
  EXPECT_FALSE(MachineConfig::vex4x4() ==
               MachineConfig::heterogeneous_of(shapes, 2));
}

TEST(Instruction, EmptyInstructionIsValidBubble) {
  const Instruction instr;
  EXPECT_TRUE(instr.empty());
  EXPECT_EQ(instr.op_count(), 0u);
  EXPECT_EQ(instr.validate(MachineConfig::vex4x4()), "");
}

TEST(Instruction, ValidPackedInstruction) {
  const MachineConfig m = MachineConfig::vex4x4();
  Instruction instr;
  instr.add(make_alu(0, 0));
  instr.add(make_mul(0, 1));
  instr.add(make_load(0, 2, 0x1000));
  instr.add(make_branch(0, 3, false));
  instr.add(make_alu(3, 0));
  EXPECT_EQ(instr.validate(m), "");
  EXPECT_EQ(instr.op_count(), 5u);
}

TEST(Instruction, RejectsClusterOutOfRange) {
  Instruction instr;
  instr.add(make_alu(4, 0));
  EXPECT_NE(Instruction{instr}.validate(MachineConfig::vex4x4()), "");
}

TEST(Instruction, RejectsSlotOutOfRange) {
  Instruction instr;
  instr.add(make_alu(0, 4));
  EXPECT_NE(instr.validate(MachineConfig::vex4x4()), "");
}

TEST(Instruction, RejectsMemInNonMemSlot) {
  Instruction instr;
  instr.add(make_load(0, 0, 0x100));  // LSU lives in slot 2
  EXPECT_NE(instr.validate(MachineConfig::vex4x4()), "");
}

TEST(Instruction, RejectsMulInNonMulSlot) {
  Instruction instr;
  instr.add(make_mul(1, 3));
  EXPECT_NE(instr.validate(MachineConfig::vex4x4()), "");
}

TEST(Instruction, RejectsDoubleBookedSlot) {
  Instruction instr;
  instr.add(make_alu(2, 1));
  instr.add(make_mul(2, 1));
  EXPECT_NE(instr.validate(MachineConfig::vex4x4()), "");
}

TEST(Instruction, AllowsSameSlotOnDifferentClusters) {
  Instruction instr;
  instr.add(make_alu(0, 1));
  instr.add(make_alu(1, 1));
  EXPECT_EQ(instr.validate(MachineConfig::vex4x4()), "");
}

TEST(Instruction, TakenBranchLookup) {
  Instruction instr;
  instr.add(make_alu(0, 0));
  EXPECT_EQ(instr.taken_branch(), nullptr);
  instr.add(make_branch(0, 3, false));
  EXPECT_EQ(instr.taken_branch(), nullptr);
  instr.add(make_branch(1, 3, true));
  ASSERT_NE(instr.taken_branch(), nullptr);
  EXPECT_EQ(instr.taken_branch()->cluster, 1);
}

TEST(Instruction, HasMemoryOp) {
  Instruction instr;
  instr.add(make_alu(0, 0));
  EXPECT_FALSE(instr.has_memory_op());
  instr.add(make_store(2, 2, 0xBEEF));
  EXPECT_TRUE(instr.has_memory_op());
}

TEST(Instruction, PcRoundTrip) {
  Instruction instr;
  instr.set_pc(0xCAFE);
  EXPECT_EQ(instr.pc(), 0xCAFEu);
}

TEST(Instruction, ToStringRendersFig1Style) {
  const MachineConfig m = MachineConfig::vex4x2();
  Instruction instr;
  instr.add(make_alu(0, 0));
  instr.add(make_load(1, 1, 0));
  const std::string s = instr.to_string(m);
  EXPECT_EQ(s, "alu - | - ld | - - | - -");
}

TEST(Instruction, EqualityIncludesPc) {
  Instruction a, b;
  a.add(make_alu(0, 0));
  b.add(make_alu(0, 0));
  EXPECT_TRUE(a == b);
  b.set_pc(4);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace cvmt
