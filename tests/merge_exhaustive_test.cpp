// The merge network, proved by enumeration on bounded machines.
//
// On MachineConfig::clustered(2, 2), an instruction of ALU and multiply
// ops has one of 25 footprints; with "stalled" a thread has 26 states, so
// a 4-thread scheme sees 26^4 = 456,976 candidate vectors, and every one
// is decided here. Over all of them, at rotation 0 under fixed priority
// with full stats, for every scheme below:
//
//   * the compiled plan equals the tree reference: packet and mask per
//     vector, node stats and issued histogram over the domain;
//   * leaf_thread(r, i) == (leaf_thread(0, i) + r) % n. Rotation r on a
//     vector is rotation 0 on the vector rotated by r, in the plan (by
//     this identity) and in the tree walk (by its definition), and the
//     domain is closed under rotation, so rotation 0 stands for all;
//   * plans with equal signatures decide alike on every vector, and the
//     paper schemes with distinct signatures have distinct decision
//     tables (on this domain the signature is complete, not only sound);
//   * C4 grants what the paper's parallel CSMT control grants (§3): the
//     lexicographically greatest cluster-disjoint subset of the offers;
//   * the SWAR form of the SMT check equals its per-cluster walk on every
//     pair of footprints.
//
// A heterogeneous machine, whose clusters differ in width, is proved in
// tier 1 too. Over the full 2x2 domain (memory and branch ops too), 4x1
// and 1x4 the proof takes minutes, so those cases are DISABLED_ and run
// nightly with --gtest_also_run_disabled_tests.
//
// The paper's 4x4 machine is too wide to enumerate (48 usages per
// cluster). The sampled tests at the end draw every op kind on it and
// decide at rotating priority: GateSim* hold the merge control's
// gate-level claims (§3) against the parallel grant, EngineEquivalenceTest
// holds signature twins to each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/merge_engine.hpp"
#include "sim/worker_pool.hpp"
#include "support/rng.hpp"

namespace cvmt {
namespace {

using Candidates = std::vector<const Footprint*>;

/// Every distinct footprint of an instruction that puts at most one op of
/// `kinds` in each slot the kind may use.
std::vector<Footprint> footprints_of(const MachineConfig& m,
                                     const std::vector<OpKind>& kinds) {
  std::vector<Footprint> out;
  Instruction instr;
  const std::function<void(int, int)> place = [&](int c, int s) {
    if (c == m.num_clusters) {
      const Footprint fp = Footprint::of(instr, m);
      if (std::find(out.begin(), out.end(), fp) == out.end())
        out.push_back(fp);
      return;
    }
    const bool last = s + 1 == m.cluster_issue(c);
    const int next_c = last ? c + 1 : c;
    const int next_s = last ? 0 : s + 1;
    place(next_c, next_s);  // the slot stays empty
    for (const OpKind kind : kinds) {
      if ((m.slots_for(kind, c) >> s & 1u) == 0) continue;
      const Instruction before = instr;
      instr.add({kind, static_cast<std::uint8_t>(c),
                 static_cast<std::uint8_t>(s), false, 0});
      place(next_c, next_s);
      instr = before;
    }
  };
  place(0, 0);
  return out;
}

/// The parallel CSMT grant at `rotation` (priority port p holds thread
/// (p + rotation) % n): of the subsets of offering threads whose cluster
/// masks are pairwise disjoint, the lexicographically greatest, port 0
/// most significant. Walking keys downwards, the first feasible subset is
/// the greatest.
std::uint32_t parallel_grant(const Candidates& c, int rotation = 0) {
  const int n = static_cast<int>(c.size());
  for (std::uint32_t key = (1u << n) - 1; key != 0; --key) {
    std::uint32_t subset = 0;
    std::uint32_t used = 0;
    bool feasible = true;
    for (int p = 0; p < n && feasible; ++p) {
      if ((key >> (n - 1 - p) & 1u) == 0) continue;
      const int t = (p + rotation) % n;
      const Footprint* fp = c[static_cast<std::size_t>(t)];
      feasible = fp != nullptr && (used & fp->cluster_mask()) == 0;
      if (feasible) used |= fp->cluster_mask();
      subset |= 1u << t;
    }
    if (feasible) return subset;
  }
  return 0;
}

/// The 16 paper schemes first, then IMT4, 1C, the serial twin of 2C3S and
/// three schemes with select blocks under and over SMT and CSMT blocks.
std::vector<Scheme> proof_schemes() {
  std::vector<Scheme> out = Scheme::paper_schemes_4t();
  for (const char* name : {"IMT4", "1C", "S(C(C(0,1),2),3)",
                           "I(S(0,1),C(2,3))", "C(I(0,1),I(2,3))",
                           "S(I(0,1),2,3)"})
    out.push_back(Scheme::parse(name));
  return out;
}
constexpr std::size_t kPaperSchemes = 16;

const std::vector<OpKind> kEveryKind = {OpKind::kAlu, OpKind::kMul,
                                        OpKind::kLoad, OpKind::kStore,
                                        OpKind::kBranch};

struct Domain {
  MachineConfig machine;
  std::vector<OpKind> kinds;
  std::size_t states;        ///< footprints + stalled
  std::size_t paper_tables;  ///< distinct decision tables of the paper schemes
};

/// A decision table in one word: FNV-1a over its decisions in order.
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
std::uint64_t fnv(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * 0x100000001b3ULL;
}

/// One scheme's two evaluators, fresh for one chunk of the domain.
struct Subject {
  Subject(const Scheme& s, const MachineConfig& m)
      : plan(s, m, PriorityPolicy::kFixed, StatsLevel::kFull, EvalMode::kPlan),
        tree(s, m, PriorityPolicy::kFixed, StatsLevel::kFull,
             EvalMode::kTreeReference) {}
  MergeEngine plan;
  MergeEngine tree;
  std::uint32_t mask = 0;       ///< the current vector's decision
  std::uint64_t table = kFnvBasis;  ///< the decisions so far, hashed
};

[[noreturn]] void fail(const std::string& what,
                       const std::vector<std::size_t>& vector) {
  std::string at = " at state vector (";
  for (std::size_t t = 0; t < vector.size(); ++t) {
    if (t > 0) at += ',';
    at += std::to_string(vector[t]);
  }
  throw std::runtime_error(what + at + ")");
}

/// Decides every vector whose thread 0 is in state `first` under each of
/// `schemes` (all of one thread count), checking plan against tree,
/// signature mates against each other and C4 against the parallel grant.
/// Returns each scheme's decisions over the chunk, hashed in enumeration
/// order; throws naming the first failure.
std::vector<std::uint64_t> prove_chunk(const Domain& d,
                                       const Candidates& states,
                                       const std::vector<Scheme>& schemes,
                                       std::size_t first) {
  std::vector<Subject> subjects;
  subjects.reserve(schemes.size());
  for (const Scheme& s : schemes) subjects.emplace_back(s, d.machine);
  Subject* c4 = nullptr;
  std::vector<std::pair<Subject*, Subject*>> mates;
  for (std::size_t a = 0; a < subjects.size(); ++a) {
    if (schemes[a].name() == "C4") c4 = &subjects[a];
    for (std::size_t b = a + 1; b < subjects.size(); ++b)
      if (subjects[a].plan.plan().signature() ==
          subjects[b].plan.plan().signature())
        mates.emplace_back(&subjects[a], &subjects[b]);
  }

  const std::size_t n = static_cast<std::size_t>(schemes[0].num_threads());
  std::vector<std::size_t> vector(n, 0);
  Candidates cands(n, nullptr);
  vector[0] = first;
  cands[0] = states[first];
  const std::span<const Footprint* const> span(cands.data(), n);
  for (bool more = true; more;) {
    for (Subject& s : subjects) {
      const MergeDecision dp = s.plan.select(span);
      const MergeDecision dt = s.tree.select(span);
      if (dp.issued_mask != dt.issued_mask || !(dp.packet == dt.packet))
        fail(s.plan.scheme().name() + ": plan issues " +
                 std::to_string(dp.issued_mask) + ", tree " +
                 std::to_string(dt.issued_mask),
             vector);
      s.mask = dp.issued_mask;
      s.table = fnv(s.table, s.mask);
    }
    for (const auto& [a, b] : mates)
      if (a->mask != b->mask)
        fail(a->plan.scheme().name() + " and " + b->plan.scheme().name() +
                 " share a signature but issue " + std::to_string(a->mask) +
                 " and " + std::to_string(b->mask),
             vector);
    if (c4 != nullptr && c4->mask != parallel_grant(cands))
      fail("C4 issues " + std::to_string(c4->mask) +
               ", the parallel grant is " +
               std::to_string(parallel_grant(cands)),
           vector);
    // Next vector, thread n-1 fastest; thread 0 stays at `first`.
    more = false;
    for (std::size_t t = n; t-- > 1;) {
      if (++vector[t] < states.size()) {
        cands[t] = states[vector[t]];
        more = true;
        break;
      }
      vector[t] = 0;
      cands[t] = states[0];
    }
  }

  std::vector<std::uint64_t> tables;
  for (const Subject& s : subjects) {
    const std::string chunk = s.plan.scheme().name() +
                              ": over the vectors with thread 0 in state " +
                              std::to_string(first) + ", plan and tree ";
    const auto& ps = s.plan.node_stats();
    const auto& ts = s.tree.node_stats();
    for (std::size_t b = 0; b < ps.size(); ++b)
      if (ps[b].attempts != ts[b].attempts || ps[b].rejects != ts[b].rejects)
        throw std::runtime_error(chunk + "count block " + std::to_string(b) +
                                 " differently");
    const Histogram& ph = s.plan.issued_histogram();
    const Histogram& th = s.tree.issued_histogram();
    for (std::size_t k = 0; k < ph.num_buckets(); ++k)
      if (ph.bucket(k) != th.bucket(k))
        throw std::runtime_error(chunk + "differ in histogram bucket " +
                                 std::to_string(k));
    tables.push_back(s.table);
  }
  return tables;
}

void prove(const Domain& d) {
  const std::vector<Footprint> fps = footprints_of(d.machine, d.kinds);
  Candidates states{nullptr};  // state 0: stalled
  for (const Footprint& fp : fps) states.push_back(&fp);
  ASSERT_EQ(states.size(), d.states);

  // The SMT check's SWAR form against its per-cluster walk, on every pair.
  for (const Footprint& a : fps)
    for (const Footprint& b : fps)
      ASSERT_EQ(Footprint::smt_compatible(a, b, d.machine),
                smt_compatible_het(a, b, d.machine));

  const std::vector<Scheme> schemes = proof_schemes();
  std::set<std::string> signatures;  // of the paper schemes
  for (std::size_t k = 0; k < schemes.size(); ++k) {
    const MergePlan plan(schemes[k], d.machine);
    const int n = plan.num_threads();
    for (int r = 0; r < n; ++r)
      for (int i = 0; i < n; ++i)
        ASSERT_EQ(plan.leaf_thread(r, i), (plan.leaf_thread(0, i) + r) % n)
            << schemes[k].name() << " rotation " << r << " leaf " << i;
    if (k < kPaperSchemes) signatures.insert(plan.signature());
  }

  // Each thread count's schemes over its own domain, one chunk per state
  // of thread 0, on the process's worker pool.
  std::set<std::pair<int, std::uint64_t>> tables;  // of the paper schemes
  for (const int n : {2, 4}) {
    std::vector<Scheme> group;
    std::vector<bool> paper;
    for (std::size_t k = 0; k < schemes.size(); ++k) {
      if (schemes[k].num_threads() != n) continue;
      group.push_back(schemes[k]);
      paper.push_back(k < kPaperSchemes);
    }
    std::vector<std::vector<std::uint64_t>> chunks(states.size());
    WorkerPool::process().for_each(
        states.size(), 0, [&](std::size_t first, SimSession&) {
          chunks[first] = prove_chunk(d, states, group, first);
        });
    for (std::size_t k = 0; k < group.size(); ++k) {
      if (!paper[k]) continue;
      std::uint64_t table = kFnvBasis;
      for (const auto& chunk : chunks) table = fnv(table, chunk[k]);
      tables.emplace(n, table);
    }
  }
  // The paper schemes have 13 signatures (C4 = 3CCC, 2SC3 = 3SCC and
  // 2C3S = 3CCS share one). Equal signatures decided alike on every
  // vector, so there are at most 13 tables; 13 means no two distinct
  // signatures decide alike on the domain.
  EXPECT_EQ(signatures.size(), 13u);
  EXPECT_EQ(tables.size(), d.paper_tables);
}

TEST(MergeExhaustive, TwoByTwoAluAndMul) {
  prove({MachineConfig::clustered(2, 2), {OpKind::kAlu, OpKind::kMul}, 26,
         13});
}

// All five kinds: the load/store and branch slot is the mul slot's
// neighbour, so 64 footprints, 65 states and 65^4 = 17.85M vectors.
TEST(MergeExhaustive, DISABLED_TwoByTwoAllKinds) {
  prove({MachineConfig::clustered(2, 2), kEveryKind, 65, 13});
}

// Four one-slot clusters fill all four lanes of a SWAR word: 3^4 + 1 = 82
// states. An SMT merge of two packets that share a one-slot cluster always
// overflows it, so SMT decides like CSMT and the paper schemes fall into
// three tables: the chains, the balanced trees and 1S.
TEST(MergeExhaustive, DISABLED_FourByOne) {
  prove({MachineConfig::clustered(4, 1), kEveryKind, 82, 3});
}

// One four-slot cluster reaches every fixed-slot bit: 48 footprints.
TEST(MergeExhaustive, DISABLED_OneByFour) {
  prove({MachineConfig::clustered(1, 4), kEveryKind, 49, 13});
}

// Per-cluster widths in the SWAR SMT check: a 2-slot cluster with the
// multiplier and a 1-slot cluster with the memory and branch units, 8 x 3
// footprints and 25^4 = 390,625 vectors, cheap enough for tier 1.
TEST(MergeExhaustive, Heterogeneous) {
  const ClusterShape shapes[] = {{2, 0b01, 0b10, 0b10}, {1, 0, 0b1, 0b1}};
  prove({MachineConfig::heterogeneous_of(shapes, 2), kEveryKind, 25, 13});
}

// ---------------------------------------------- the paper's 4x4, sampled

const MachineConfig kVex = MachineConfig::vex4x4();

/// A random candidate vector on vex4x4: each thread stalls one time in
/// five, else offers up to six ops of every kind, each in a free slot that
/// takes its kind.
Candidates draw(Xoshiro256& rng, std::array<Footprint, 4>& storage) {
  Candidates cands(storage.size(), nullptr);
  for (std::size_t t = 0; t < storage.size(); ++t) {
    if (rng.next_bool(0.2)) continue;
    Instruction instr;
    std::uint32_t used[kMaxClusters] = {};
    for (auto k = rng.next_below(7); k > 0; --k) {
      const OpKind kinds[] = {OpKind::kAlu,  OpKind::kAlu,   OpKind::kMul,
                              OpKind::kLoad, OpKind::kStore, OpKind::kBranch};
      const OpKind kind = kinds[rng.next_below(std::size(kinds))];
      const auto c = static_cast<std::uint8_t>(rng.next_below(4));
      const std::uint32_t free = kVex.slots_for(kind, c) & ~used[c];
      if (free == 0) continue;
      const auto s = static_cast<std::uint8_t>(std::countr_zero(free));
      used[c] |= 1u << s;
      instr.add({kind, c, s, false, 0});
    }
    storage[t] = Footprint::of(instr, kVex);
    cands[t] = &storage[t];
  }
  return cands;
}

MergeDecision select(MergeEngine& e, const Candidates& c) {
  return e.select(std::span<const Footprint* const>(c.data(), c.size()));
}

// The worked example of the parallel grant: {0, 1} and {0, 2} are both
// feasible, and thread 1 outranks thread 2.
TEST(GateSim, ParallelSelectPicksHighestPrioritySubset) {
  Instruction wide, narrow;
  wide.add(make_alu(0, 0));
  wide.add(make_alu(1, 0));
  narrow.add(make_alu(2, 0));
  const Footprint a = Footprint::of(wide, kVex);
  const Footprint b = Footprint::of(narrow, kVex);
  const Candidates cands = {&a, &b, &b};
  MergeEngine e(Scheme::parallel_csmt(3), kVex, PriorityPolicy::kFixed);
  EXPECT_EQ(select(e, cands).issued_mask, 0b011u);
  EXPECT_EQ(parallel_grant(cands), 0b011u);
}

// The parallel grant against the serial cascade (3CCC walked by the tree
// reference) and against the parallel block as the simulator runs it (C4
// on the compiled plan), under round-robin priority: cycle k is decided
// at rotation k % 4.
class GateSimEquivalence : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void expect_parallel_grant(const char* scheme, EvalMode mode) {
    MergeEngine e(Scheme::parse(scheme), kVex, PriorityPolicy::kRoundRobin,
                  StatsLevel::kFast, mode);
    Xoshiro256 rng(GetParam());
    for (int cycle = 0; cycle < 3000; ++cycle) {
      std::array<Footprint, 4> storage;
      const Candidates cands = draw(rng, storage);
      ASSERT_EQ(select(e, cands).issued_mask,
                parallel_grant(cands, cycle % 4))
          << scheme << " at cycle " << cycle;
    }
  }
};

TEST_P(GateSimEquivalence, ParallelEqualsSerial) {
  expect_parallel_grant("3CCC", EvalMode::kTreeReference);
}

TEST_P(GateSimEquivalence, GateModelMatchesBehaviouralEngine) {
  expect_parallel_grant("C4", EvalMode::kPlan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GateSimEquivalence,
                         ::testing::Values(3, 7, 31, 127));

// Signature twins decide alike cycle by cycle on the paper's machine.
class EngineEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void expect_equivalent(const char* scheme_a, const char* scheme_b,
                         PriorityPolicy policy) {
    MergeEngine ea(Scheme::parse(scheme_a), kVex, policy);
    MergeEngine eb(Scheme::parse(scheme_b), kVex, policy);
    Xoshiro256 rng(GetParam());
    for (int cycle = 0; cycle < 2000; ++cycle) {
      std::array<Footprint, 4> storage;
      const Candidates cands = draw(rng, storage);
      ASSERT_EQ(select(ea, cands).issued_mask, select(eb, cands).issued_mask)
          << scheme_a << " vs " << scheme_b << " diverged at cycle "
          << cycle;
    }
  }
};

TEST_P(EngineEquivalenceTest, ParallelC4EqualsSerial3CCC) {
  expect_equivalent("C4", "3CCC", PriorityPolicy::kRoundRobin);
}

TEST_P(EngineEquivalenceTest, Parallel2SC3EqualsSerial3SCC) {
  expect_equivalent("2SC3", "3SCC", PriorityPolicy::kRoundRobin);
}

TEST_P(EngineEquivalenceTest, Parallel2C3SEqualsSerialFunctional) {
  expect_equivalent("2C3S", "S(C(C(0,1),2),3)", PriorityPolicy::kFixed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace cvmt
