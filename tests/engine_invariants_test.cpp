// Machine-safety invariants of every paper scheme under random candidate
// streams: whatever the merge network selects, the resulting execution
// packet must be executable — per-cluster operation counts within the
// issue width, and the packet footprint exactly the union of the issued
// candidates. A violation here would silently corrupt every IPC figure.
#include <gtest/gtest.h>

#include <array>
#include <bit>

#include "core/merge_engine.hpp"
#include "support/rng.hpp"

namespace cvmt {
namespace {

const MachineConfig kM = MachineConfig::vex4x4();

/// Random instruction with realistic kind mix and legal placement.
Footprint random_footprint(Xoshiro256& rng) {
  Instruction instr;
  std::uint32_t occupied[kMaxClusters] = {};
  const int k = static_cast<int>(rng.next_below(9));  // 0..8 ops
  const int home = static_cast<int>(rng.next_below(4));
  for (int j = 0; j < k; ++j) {
    const OpKind kinds[] = {OpKind::kAlu, OpKind::kAlu, OpKind::kAlu,
                            OpKind::kMul, OpKind::kLoad, OpKind::kStore,
                            OpKind::kBranch};
    const OpKind kind = kinds[rng.next_below(std::size(kinds))];
    for (int probe = 0; probe < 4; ++probe) {
      const int c = (home + probe) % 4;
      const std::uint32_t free = kM.slots_for(kind, c) & ~occupied[c];
      if (free == 0) continue;
      const int slot = std::countr_zero(free);
      occupied[c] |= 1u << slot;
      Operation op;
      op.kind = kind;
      op.cluster = static_cast<std::uint8_t>(c);
      op.slot = static_cast<std::uint8_t>(slot);
      instr.add(op);
      break;
    }
  }
  return Footprint::of(instr, kM);
}

class EngineInvariantsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineInvariantsTest, PacketsAlwaysExecutable) {
  const Scheme scheme = Scheme::parse(GetParam());
  MergeEngine engine(scheme, kM, PriorityPolicy::kRoundRobin);
  Xoshiro256 rng(0x5EED ^ std::hash<std::string>{}(GetParam()));
  const int n = scheme.num_threads();

  for (int cycle = 0; cycle < 3000; ++cycle) {
    std::array<Footprint, kMaxThreads> storage;
    std::array<const Footprint*, kMaxThreads> cands{};
    for (int t = 0; t < n; ++t) {
      if (rng.next_bool(0.2)) continue;
      storage[static_cast<std::size_t>(t)] = random_footprint(rng);
      cands[static_cast<std::size_t>(t)] =
          &storage[static_cast<std::size_t>(t)];
    }
    const MergeDecision d = engine.select(std::span<const Footprint* const>(
        cands.data(), static_cast<std::size_t>(n)));

    // 1. Only offering threads can issue.
    for (int t = 0; t < n; ++t) {
      if (cands[static_cast<std::size_t>(t)] == nullptr) {
        ASSERT_EQ(d.issued_mask & (1u << t), 0u) << "issued stalled thread";
      }
    }
    // 2. The packet respects the machine: per-cluster width, and op total
    //    equals the sum of the issued candidates.
    int expected_ops = 0;
    std::array<int, kMaxClusters> expected_count{};
    for (int t = 0; t < n; ++t) {
      if ((d.issued_mask & (1u << t)) == 0) continue;
      const Footprint& fp = storage[static_cast<std::size_t>(t)];
      expected_ops += fp.total_ops();
      for (int c = 0; c < kM.num_clusters; ++c)
        expected_count[static_cast<std::size_t>(c)] +=
            fp.cluster(c).op_count;
    }
    ASSERT_EQ(d.packet.total_ops(), expected_ops);
    for (int c = 0; c < kM.num_clusters; ++c) {
      ASSERT_EQ(d.packet.cluster(c).op_count,
                expected_count[static_cast<std::size_t>(c)]);
      ASSERT_LE(d.packet.cluster(c).op_count, kM.cluster_issue(c))
          << "cluster over-subscribed";
    }
    // 3. At least the highest-priority offering thread issues.
    if (d.issued_mask == 0) {
      bool any = false;
      for (int t = 0; t < n; ++t)
        any |= cands[static_cast<std::size_t>(t)] != nullptr;
      ASSERT_FALSE(any) << "nothing issued despite offers";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperSchemes, EngineInvariantsTest,
    ::testing::Values("1S", "1C", "C4", "3CCC", "2CC", "2SC3", "3CSC",
                      "2C3S", "3CCS", "3SCC", "2CS", "2SC", "3SSC", "3SCS",
                      "3CSS", "2SS", "3SSS", "IMT4"));

}  // namespace
}  // namespace cvmt
