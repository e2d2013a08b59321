// MergePlan: flattened layout, permutation tables, canonical stat labels,
// and — most importantly — cycle-exact equivalence between the compiled
// plan evaluator and the reference recursive tree walk for every paper
// scheme, priority policy and merge-block kind.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <vector>

#include "core/merge_engine.hpp"
#include "support/rng.hpp"

namespace cvmt {
namespace {

const MachineConfig kM = MachineConfig::vex4x4();

using Candidates = std::vector<const Footprint*>;

MergeDecision select(MergeEngine& e, const Candidates& c) {
  return e.select(std::span<const Footprint* const>(c.data(), c.size()));
}

/// Random candidate set: small random instructions, ~20% stalled threads.
struct StreamGen {
  explicit StreamGen(std::uint64_t seed) : rng(seed) {}

  Candidates draw(std::array<Footprint, kMaxThreads>& storage, int n) {
    Candidates cands(static_cast<std::size_t>(n), nullptr);
    for (int t = 0; t < n; ++t) {
      if (rng.next_bool(0.2)) continue;  // stalled
      Instruction instr;
      std::uint32_t used[kMaxClusters] = {};
      const int k = 1 + static_cast<int>(rng.next_below(4));
      for (int j = 0; j < k; ++j) {
        const int c = static_cast<int>(rng.next_below(4));
        const std::uint32_t free = ~used[c] & 0xFu;
        if (free == 0) continue;
        const int s = std::countr_zero(free);
        used[c] |= 1u << s;
        instr.add(make_alu(c, s));
      }
      storage[static_cast<std::size_t>(t)] = Footprint::of(instr, kM);
      cands[static_cast<std::size_t>(t)] =
          &storage[static_cast<std::size_t>(t)];
    }
    return cands;
  }

  Xoshiro256 rng;
};

// --------------------------------------------------------------- structure

TEST(MergePlan, FlattensPreorderWithSubtreeExtents) {
  const Scheme scheme = Scheme::parse("3SCC");  // C(C(S(0,1),2),3)
  const MergePlan plan(scheme, kM);
  // Preorder: C, C, S, 0, 1, 2, 3 -> 7 nodes, 3 blocks, 4 leaves.
  ASSERT_EQ(plan.nodes().size(), 7u);
  EXPECT_EQ(plan.num_blocks(), 3);
  EXPECT_EQ(plan.num_threads(), 4);
  EXPECT_FALSE(plan.nodes()[0].leaf);
  EXPECT_EQ(plan.nodes()[0].end, 7u);  // root spans everything
  EXPECT_FALSE(plan.nodes()[2].leaf);  // the S block
  EXPECT_EQ(plan.nodes()[2].end, 5u);  // S spans leaves 0 and 1
  EXPECT_TRUE(plan.nodes()[3].leaf);
  EXPECT_EQ(plan.depth(), 4);  // C -> C -> S -> leaf
}

TEST(MergePlan, CascadesCompileToLinearChains) {
  for (const char* name : {"3CCC", "3SCC", "2SC3", "C4", "1S", "IMT4"})
    EXPECT_TRUE(MergePlan(Scheme::parse(name), kM).is_linear()) << name;
  // Balanced trees keep the general stack pass.
  for (const char* name : {"2CC", "2CS", "2SC", "2SS"})
    EXPECT_FALSE(MergePlan(Scheme::parse(name), kM).is_linear()) << name;
}

TEST(MergePlan, PermutationTablesMatchModulo) {
  const Scheme scheme = Scheme::parse("2CS");  // S(C(0,1),C(2,3))
  const MergePlan plan(scheme, kM);
  const int n = scheme.num_threads();
  // Leaves appear in preorder, so leaf i has port i for paper schemes.
  for (int r = 0; r < n; ++r)
    for (int i = 0; i < n; ++i)
      EXPECT_EQ(plan.leaf_thread(r, i), (i + r) % n) << r << "," << i;
}

TEST(MergePlan, StatsTemplateUsesCanonicalSubSchemeLabels) {
  MergeEngine e(Scheme::parse("3SCC"), kM);
  const auto& stats = e.node_stats();
  ASSERT_EQ(stats.size(), 3u);
  // Preorder over merge blocks, each labelled with its canonical
  // sub-scheme (the form documented on MergeNodeStats::label).
  EXPECT_EQ(stats[0].label, "C(C(S(0,1),2),3)");
  EXPECT_EQ(stats[0].kind, MergeKind::kCsmt);
  EXPECT_EQ(stats[1].label, "C(S(0,1),2)");
  EXPECT_EQ(stats[2].label, "S(0,1)");
  EXPECT_EQ(stats[2].kind, MergeKind::kSmt);

  MergeEngine c4(Scheme::parse("C4"), kM);
  ASSERT_EQ(c4.node_stats().size(), 1u);
  EXPECT_EQ(c4.node_stats()[0].label, "CP(0,1,2,3)");
}

// ------------------------------------------------------- plan==tree law

struct EquivCase {
  const char* scheme;
  PriorityPolicy policy;
};

class PlanTreeEquivalenceTest
    : public ::testing::TestWithParam<const char*> {};

/// Every paper scheme plus functional schemes exercising kSelect blocks
/// both standalone and composed under/over kSmt and kCsmt nodes.
const char* kEquivSchemes[] = {
    "1S",   "1C",   "C4",   "3CCC", "2CC",  "2SC3", "3CSC",
    "2C3S", "3CCS", "3SCC", "2CS",  "2SC",  "3SSC", "3SCS",
    "3CSS", "2SS",  "3SSS", "IMT4", "I(S(0,1),C(2,3))",
    "C(I(0,1),I(2,3))", "S(I(0,1),2,3)"};

TEST_P(PlanTreeEquivalenceTest, DecisionsAndStatsMatchEverywhere) {
  for (const PriorityPolicy policy :
       {PriorityPolicy::kRoundRobin, PriorityPolicy::kFixed,
        PriorityPolicy::kStickyOnStall}) {
    const Scheme scheme = Scheme::parse(GetParam());
    MergeEngine tree(scheme, kM, policy, StatsLevel::kFull,
                     EvalMode::kTreeReference);
    MergeEngine plan(scheme, kM, policy, StatsLevel::kFull,
                     EvalMode::kPlan);
    StreamGen gen(0xBEEF ^ std::hash<std::string>{}(GetParam()) ^
                  static_cast<std::uint64_t>(policy));
    const int n = scheme.num_threads();
    for (int cycle = 0; cycle < 1500; ++cycle) {
      std::array<Footprint, kMaxThreads> storage;
      const Candidates cands = gen.draw(storage, n);
      const MergeDecision dt = select(tree, cands);
      const MergeDecision dp = select(plan, cands);
      ASSERT_EQ(dt.issued_mask, dp.issued_mask)
          << GetParam() << " diverged at cycle " << cycle;
      ASSERT_EQ(dt.num_issued, dp.num_issued);
      ASSERT_TRUE(dt.packet == dp.packet) << "packet mismatch at cycle "
                                          << cycle;
    }
    // Statistics must agree exactly, not just decisions.
    ASSERT_EQ(tree.node_stats().size(), plan.node_stats().size());
    for (std::size_t i = 0; i < tree.node_stats().size(); ++i) {
      EXPECT_EQ(tree.node_stats()[i].label, plan.node_stats()[i].label);
      EXPECT_EQ(tree.node_stats()[i].attempts,
                plan.node_stats()[i].attempts)
          << GetParam() << " node " << i;
      EXPECT_EQ(tree.node_stats()[i].rejects, plan.node_stats()[i].rejects)
          << GetParam() << " node " << i;
    }
    for (std::size_t k = 0; k < tree.issued_histogram().num_buckets(); ++k)
      EXPECT_EQ(tree.issued_histogram().bucket(k),
                plan.issued_histogram().bucket(k));
    EXPECT_EQ(tree.cycles(), plan.cycles());
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PlanTreeEquivalenceTest,
                         ::testing::ValuesIn(kEquivSchemes));

// ------------------------------------------------------------ stats levels

TEST(MergePlanStats, FastLevelKeepsDecisionsDropsCounters) {
  const Scheme scheme = Scheme::parse("2SC3");
  MergeEngine full(scheme, kM, PriorityPolicy::kRoundRobin,
                   StatsLevel::kFull);
  MergeEngine fast(scheme, kM, PriorityPolicy::kRoundRobin,
                   StatsLevel::kFast);
  StreamGen gen(0xFA57);
  for (int cycle = 0; cycle < 1000; ++cycle) {
    std::array<Footprint, kMaxThreads> storage;
    const Candidates cands = gen.draw(storage, 4);
    const MergeDecision df = select(full, cands);
    const MergeDecision dq = select(fast, cands);
    ASSERT_EQ(df.issued_mask, dq.issued_mask) << "cycle " << cycle;
  }
  // Full mode accumulated counters; fast mode kept labels but no counts.
  std::uint64_t full_attempts = 0;
  for (const auto& s : full.node_stats()) full_attempts += s.attempts;
  EXPECT_GT(full_attempts, 0u);
  ASSERT_EQ(fast.node_stats().size(), full.node_stats().size());
  for (const auto& s : fast.node_stats()) {
    EXPECT_FALSE(s.label.empty());
    EXPECT_EQ(s.attempts, 0u);
    EXPECT_EQ(s.rejects, 0u);
  }
  EXPECT_GT(full.issued_histogram().total(), 0u);
  EXPECT_EQ(fast.issued_histogram().total(), 0u);
  EXPECT_EQ(fast.cycles(), full.cycles());  // cycle count is always kept
}

TEST(MergePlanStats, SelectMaskGatheredMatchesSelect) {
  const Scheme scheme = Scheme::parse("3SCC");
  MergeEngine a(scheme, kM, PriorityPolicy::kRoundRobin);
  MergeEngine b(scheme, kM, PriorityPolicy::kRoundRobin);
  StreamGen gen(0x9A7);
  for (int cycle = 0; cycle < 1000; ++cycle) {
    std::array<Footprint, kMaxThreads> storage;
    const Candidates cands = gen.draw(storage, 4);
    int num_offers = 0;
    int only = -1;
    for (int t = 0; t < 4; ++t) {
      if (cands[static_cast<std::size_t>(t)] != nullptr) {
        ++num_offers;
        only = t;
      }
    }
    const MergeDecision da = select(a, cands);
    const std::uint32_t mb = b.select_mask_gathered(
        std::span<const Footprint* const>(cands.data(), cands.size()),
        num_offers, only);
    ASSERT_EQ(da.issued_mask, mb) << "cycle " << cycle;
  }
  for (std::size_t i = 0; i < a.node_stats().size(); ++i) {
    EXPECT_EQ(a.node_stats()[i].attempts, b.node_stats()[i].attempts);
    EXPECT_EQ(a.node_stats()[i].rejects, b.node_stats()[i].rejects);
  }
  for (std::size_t k = 0; k < a.issued_histogram().num_buckets(); ++k)
    EXPECT_EQ(a.issued_histogram().bucket(k),
              b.issued_histogram().bucket(k));
}

// ---------------------------------------------------------- reset_rotation

TEST(MergeEngineReset, ResetRotationReplaysBitIdentically) {
  // reset_rotation() rewinds the rotation *index* only — the plan's
  // permutation tables are immutable — so replaying an identical stream
  // from a reset engine must reproduce every decision exactly.
  for (const PriorityPolicy policy :
       {PriorityPolicy::kRoundRobin, PriorityPolicy::kStickyOnStall}) {
    MergeEngine e(Scheme::parse("2SC3"), kM, policy);
    std::vector<std::uint32_t> first;
    for (int pass = 0; pass < 2; ++pass) {
      StreamGen gen(0x5EED);  // identical stream each pass
      for (int cycle = 0; cycle < 500; ++cycle) {
        std::array<Footprint, kMaxThreads> storage;
        const Candidates cands = gen.draw(storage, 4);
        const MergeDecision d = select(e, cands);
        if (pass == 0) {
          first.push_back(d.issued_mask);
        } else {
          ASSERT_EQ(d.issued_mask, first[static_cast<std::size_t>(cycle)])
              << "policy " << static_cast<int>(policy) << " cycle "
              << cycle;
        }
      }
      e.reset_rotation();
    }
    // Statistics are cumulative across the reset (documented behaviour).
    EXPECT_EQ(e.cycles(), 1000u);
  }
}

}  // namespace
}  // namespace cvmt
