// Unit tests for the support layer: RNG determinism and distribution
// sanity, InlineVec, statistics accumulators, table rendering, strings.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "support/check.hpp"
#include "support/inline_vec.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace cvmt {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    CVMT_CHECK_MSG(1 == 2, "the message");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(CVMT_CHECK(2 + 2 == 4));
}

TEST(InlineVec, StartsEmpty) {
  using Vec4 = InlineVec<int, 4>;
  Vec4 v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(Vec4::capacity(), 4u);
}

TEST(InlineVec, PushAndIndex) {
  InlineVec<int, 8> v;
  for (int i = 0; i < 8; ++i) v.push_back(i * i);
  EXPECT_EQ(v.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i * i);
}

TEST(InlineVec, InitializerListAndEquality) {
  const InlineVec<int, 4> a{1, 2, 3};
  const InlineVec<int, 4> b{1, 2, 3};
  const InlineVec<int, 4> c{1, 2};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(InlineVec, ClearAndPopBack) {
  InlineVec<int, 4> v{5, 6};
  v.pop_back();
  EXPECT_EQ(v.back(), 5);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(InlineVec, RangeFor) {
  InlineVec<int, 4> v{1, 2, 3};
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 6);
}

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Xoshiro, DeterministicAcrossInstances) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Xoshiro, CopyResumesIdentically) {
  Xoshiro256 a(9);
  for (int i = 0; i < 17; ++i) a.next();
  Xoshiro256 b = a;
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Xoshiro, NextBelowIsInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Xoshiro, NextBelowCoversAllResidues) {
  Xoshiro256 rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro, NextBelowOneIsAlwaysZero) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Xoshiro, DoubleInUnitInterval) {
  Xoshiro256 rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, DoubleMeanNearHalf) {
  Xoshiro256 rng(8);
  RunningStat s;
  for (int i = 0; i < 50000; ++i) s.add(rng.next_double());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Xoshiro, BoolProbabilityRespected) {
  Xoshiro256 rng(10);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Xoshiro, BoolExtremes) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Xoshiro, WeightedRespectsWeights) {
  Xoshiro256 rng(12);
  const double w[] = {1.0, 3.0};
  int counts[2] = {0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[rng.next_weighted(w)];
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[0], 3.0, 0.25);
}

TEST(Xoshiro, WeightedSkipsZeroWeight) {
  Xoshiro256 rng(13);
  const double w[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.next_weighted(w), 1u);
}

TEST(Xoshiro, WeightedRejectsAllZero) {
  Xoshiro256 rng(14);
  const double w[] = {0.0, 0.0};
  EXPECT_THROW((void)rng.next_weighted(w), CheckError);
}

TEST(Xoshiro, TripCountMeanApproximatesTarget) {
  Xoshiro256 rng(15);
  RunningStat s;
  for (int i = 0; i < 50000; ++i)
    s.add(static_cast<double>(rng.next_trip_count(12.0)));
  EXPECT_NEAR(s.mean(), 12.0, 0.5);
  EXPECT_GE(s.min(), 1.0);
}

TEST(Xoshiro, TripCountOfOneIsDegenerate) {
  Xoshiro256 rng(16);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_trip_count(1.0), 1u);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat all, a, b;
  Xoshiro256 rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double() * 10;
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_EQ(empty.mean(), 3.0);
}

TEST(Histogram, BucketsAndClamp) {
  Histogram h(4);
  h.add(0);
  h.add(1, 2);
  h.add(3);
  h.add(99);  // clamps into the last bucket
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, MeanAndFraction) {
  Histogram h(5);
  h.add(1, 3);
  h.add(3, 1);
  EXPECT_DOUBLE_EQ(h.mean(), 1.5);
  EXPECT_DOUBLE_EQ(h.fraction(1), 0.75);
}

TEST(RatioCounter, Rate) {
  RatioCounter c;
  c.record(true);
  c.record(true);
  c.record(false);
  EXPECT_NEAR(c.rate(), 2.0 / 3.0, 1e-12);
}

TEST(PercentDiff, Basics) {
  EXPECT_DOUBLE_EQ(percent_diff(3.0, 2.0), 50.0);
  EXPECT_DOUBLE_EQ(percent_diff(1.0, 2.0), -50.0);
  EXPECT_THROW((void)percent_diff(1.0, 0.0), CheckError);
}

TEST(StringUtil, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, ToUpper) { EXPECT_EQ(to_upper("3scC"), "3SCC"); }

TEST(StringUtil, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

TEST(StringUtil, FormatGrouped) {
  EXPECT_EQ(format_grouped(0), "0");
  EXPECT_EQ(format_grouped(999), "999");
  EXPECT_EQ(format_grouped(1234567), "1,234,567");
  EXPECT_EQ(format_grouped(-4200), "-4,200");
}

TEST(TableWriter, RejectsMismatchedRow) {
  TableWriter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckError);
}

TEST(TableWriter, RendersAlignedColumns) {
  TableWriter t({"name", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "23"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name   | v  |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 23 |"), std::string::npos);
}

}  // namespace
}  // namespace cvmt
