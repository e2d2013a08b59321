// Tests of scheme parsing, structure and the paper's 16-scheme set.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "core/scheme.hpp"
#include "support/check.hpp"

namespace cvmt {
namespace {

/// The message Scheme::parse rejects `text` with. A rejection is about
/// the input: it carries no CVMT_CHECK prefix and no source path.
std::string rejection(std::string_view text) {
  try {
    (void)Scheme::parse(text);
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("CVMT_CHECK"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
    return what;
  }
  ADD_FAILURE() << "accepted " << text.substr(0, 32);
  return {};
}

void expect_rejected(std::string_view text) {
  SCOPED_TRACE(std::string(text.substr(0, 32)));
  EXPECT_FALSE(rejection(text).empty());
}

TEST(SchemeParse, OneLevelSmt) {
  const Scheme s = Scheme::parse("1S");
  EXPECT_EQ(s.num_threads(), 2);
  EXPECT_EQ(s.canonical(), "S(0,1)");
  EXPECT_EQ(s.count_blocks(MergeKind::kSmt), 1);
  EXPECT_EQ(s.count_blocks(MergeKind::kCsmt), 0);
}

TEST(SchemeParse, OneLevelCsmt) {
  const Scheme s = Scheme::parse("1C");
  EXPECT_EQ(s.num_threads(), 2);
  EXPECT_EQ(s.canonical(), "C(0,1)");
}

TEST(SchemeParse, CascadeThreeLevels) {
  EXPECT_EQ(Scheme::parse("3SCC").canonical(), "C(C(S(0,1),2),3)");
  EXPECT_EQ(Scheme::parse("3CCC").canonical(), "C(C(C(0,1),2),3)");
  EXPECT_EQ(Scheme::parse("3SSS").canonical(), "S(S(S(0,1),2),3)");
  EXPECT_EQ(Scheme::parse("3CSC").canonical(), "C(S(C(0,1),2),3)");
  EXPECT_EQ(Scheme::parse("3CCS").canonical(), "S(C(C(0,1),2),3)");
  EXPECT_EQ(Scheme::parse("3SSC").canonical(), "C(S(S(0,1),2),3)");
  EXPECT_EQ(Scheme::parse("3SCS").canonical(), "S(C(S(0,1),2),3)");
  EXPECT_EQ(Scheme::parse("3CSS").canonical(), "S(S(C(0,1),2),3)");
}

TEST(SchemeParse, BalancedTrees) {
  EXPECT_EQ(Scheme::parse("2CC").canonical(), "C(C(0,1),C(2,3))");
  EXPECT_EQ(Scheme::parse("2SS").canonical(), "S(S(0,1),S(2,3))");
  EXPECT_EQ(Scheme::parse("2SC").canonical(), "C(S(0,1),S(2,3))");
  EXPECT_EQ(Scheme::parse("2CS").canonical(), "S(C(0,1),C(2,3))");
}

TEST(SchemeParse, ParallelCsmtBlocks) {
  const Scheme c4 = Scheme::parse("C4");
  EXPECT_EQ(c4.num_threads(), 4);
  EXPECT_EQ(c4.canonical(), "CP(0,1,2,3)");
  EXPECT_EQ(c4.count_blocks(MergeKind::kCsmt), 1);  // one wide block

  EXPECT_EQ(Scheme::parse("2SC3").canonical(), "CP(S(0,1),2,3)");
  EXPECT_EQ(Scheme::parse("2C3S").canonical(), "S(CP(0,1,2),3)");
}

TEST(SchemeParse, FunctionalSyntax) {
  const Scheme s = Scheme::parse("S(CP(0,1,2),3)");
  EXPECT_EQ(s.canonical(), "S(CP(0,1,2),3)");
  EXPECT_EQ(s.num_threads(), 4);
  EXPECT_EQ(Scheme::parse(" C( 0 , 1 ) ").canonical(), "C(0,1)");
}

TEST(SchemeParse, LowercaseAndWhitespaceTolerated) {
  EXPECT_EQ(Scheme::parse(" 3scc ").canonical(), "C(C(S(0,1),2),3)");
  EXPECT_EQ(Scheme::parse("c4").canonical(), "CP(0,1,2,3)");
}

TEST(SchemeParse, RejectsMalformedNames) {
  expect_rejected("");
  expect_rejected("XSCC");
  expect_rejected("3SC");   // level mismatch
  expect_rejected("2SCC");  // level mismatch
  expect_rejected("3S!C");
  // Counts too long for an int accumulator (more than three digits).
  expect_rejected("C4294967298");
  expect_rejected("IMT4294967298");
  // Thread counts outside 2..kMaxThreads.
  for (const char* bad : {"C1", "C17", "IMT1", "IMT17", "IMT0"})
    expect_rejected(bad);
}

TEST(SchemeParse, RejectsParallelSmt) {
  expect_rejected("2S3C");
  expect_rejected("S4");
}

TEST(SchemeParse, RejectsBadFunctionalSyntax) {
  expect_rejected("S(0)");      // 1 input
  expect_rejected("S(0,1");     // unclosed
  expect_rejected("S(0,0)");    // dup port
  expect_rejected("S(0,2)");    // gap
  expect_rejected("S(1,2)");    // not dense
  expect_rejected("S(0,1)x");   // trailing
  expect_rejected("S(4294967296,1)");
}

TEST(SchemeParse, NestingCapAcceptsTheCapAndRejectsOneMore) {
  // A left-deep chain of k blocks has k + 1 leaves, the deepest k + 1
  // levels down.
  const auto chain = [](int blocks) {
    std::string s = "0";
    for (int i = 1; i <= blocks; ++i)
      s = "C(" + s + "," + std::to_string(i) + ")";
    return s;
  };
  EXPECT_EQ(Scheme::parse(chain(kMaxThreads - 1)).num_threads(),
            kMaxThreads);
  const std::string err = rejection(chain(kMaxThreads));
  EXPECT_NE(err.find("nests deeper than 16 levels"), std::string::npos)
      << err;
  std::string deep;
  for (int i = 0; i < 100'000; ++i) deep += "C(";
  expect_rejected(deep);
}

TEST(SchemeParse, ErrorsEchoABoundedPrefix) {
  for (const std::string& bad :
       {"IMT" + std::string(10'000, '7'), std::string(10'000, '5'),
        "9" + std::string(10'000, 'S'), "3S" + std::string(10'000, 'X')}) {
    const std::string err = rejection(bad);
    EXPECT_FALSE(err.empty());
    EXPECT_LT(err.size(), 400u) << err;
  }
}

TEST(SchemeParse, RejectsTinySubscript) {
  expect_rejected("2SC1");
}

TEST(Scheme, SingleThreadDegenerate) {
  const Scheme s = Scheme::single_thread();
  EXPECT_EQ(s.num_threads(), 1);
  EXPECT_EQ(s.canonical(), "0");
  EXPECT_EQ(s.count_blocks(MergeKind::kSmt), 0);
  EXPECT_EQ(s.count_blocks(MergeKind::kCsmt), 0);
}

TEST(Scheme, PaperSchemeSetMatchesFig9Order) {
  const std::vector<Scheme> schemes = Scheme::paper_schemes_4t();
  ASSERT_EQ(schemes.size(), 16u);
  const char* expected[] = {"C4",   "3CCC", "2CC", "1S",   "2SC3", "3CSC",
                            "2C3S", "3CCS", "3SCC", "2CS",  "2SC",  "3SSC",
                            "3SCS", "3CSS", "2SS",  "3SSS"};
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(schemes[i].name(), expected[i]);
    const int expected_threads = schemes[i].name() == "1S" ? 2 : 4;
    EXPECT_EQ(schemes[i].num_threads(), expected_threads)
        << schemes[i].name();
  }
}

TEST(Scheme, BlockCountsAcrossPaperSet) {
  // Transistor cost is dominated by SMT block count (paper §4.2); verify
  // the structural counts that drive it.
  EXPECT_EQ(Scheme::parse("3SSS").count_blocks(MergeKind::kSmt), 3);
  EXPECT_EQ(Scheme::parse("2SS").count_blocks(MergeKind::kSmt), 3);
  EXPECT_EQ(Scheme::parse("3SSC").count_blocks(MergeKind::kSmt), 2);
  EXPECT_EQ(Scheme::parse("2SC").count_blocks(MergeKind::kSmt), 2);
  EXPECT_EQ(Scheme::parse("3SCC").count_blocks(MergeKind::kSmt), 1);
  EXPECT_EQ(Scheme::parse("2SC3").count_blocks(MergeKind::kSmt), 1);
  EXPECT_EQ(Scheme::parse("2CS").count_blocks(MergeKind::kSmt), 1);
  EXPECT_EQ(Scheme::parse("3CCC").count_blocks(MergeKind::kSmt), 0);
  EXPECT_EQ(Scheme::parse("C4").count_blocks(MergeKind::kSmt), 0);
}

TEST(Scheme, CascadeBuilderMatchesParser) {
  using MK = MergeKind;
  const Scheme a = Scheme::cascade({MK::kSmt, MK::kCsmt, MK::kCsmt});
  EXPECT_EQ(a.canonical(), Scheme::parse("3SCC").canonical());
  EXPECT_EQ(a.name(), "3SCC");
}

TEST(Scheme, CascadeSupportsEightThreads) {
  std::vector<MergeKind> levels(7, MergeKind::kCsmt);
  levels[0] = MergeKind::kSmt;
  const Scheme s = Scheme::cascade(levels);
  EXPECT_EQ(s.num_threads(), 8);
  EXPECT_EQ(s.name(), "7SCCCCCC");
}

TEST(Scheme, ParallelCsmtEight) {
  const Scheme s = Scheme::parallel_csmt(8);
  EXPECT_EQ(s.num_threads(), 8);
  EXPECT_EQ(s.count_blocks(MergeKind::kCsmt), 1);
}

TEST(Scheme, RejectsTooManyThreads) {
  EXPECT_THROW((void)Scheme::parallel_csmt(kMaxThreads + 1), CheckError);
}

TEST(Scheme, ImtBaselineFactoryAndParse) {
  const Scheme s = Scheme::imt(4);
  EXPECT_EQ(s.name(), "IMT4");
  EXPECT_EQ(s.num_threads(), 4);
  EXPECT_EQ(s.canonical(), "I(0,1,2,3)");
  EXPECT_EQ(s.count_blocks(MergeKind::kSmt), 0);
  EXPECT_EQ(s.count_blocks(MergeKind::kCsmt), 0);
  EXPECT_EQ(s.count_blocks(MergeKind::kSelect), 3);  // serial 4-input node
  EXPECT_EQ(Scheme::parse("imt2").canonical(), "I(0,1)");
  EXPECT_EQ(Scheme::parse("I(0,1,2)").num_threads(), 3);
  expect_rejected("IMTx");
}

TEST(Scheme, SerialMultiInputCountsAsMultipleBlocks) {
  const Scheme s = Scheme::parse("C(0,1,2,3)");  // serial 4-input node
  EXPECT_EQ(s.count_blocks(MergeKind::kCsmt), 3);
  const Scheme p = Scheme::parse("CP(0,1,2,3)");
  EXPECT_EQ(p.count_blocks(MergeKind::kCsmt), 1);
}

// --------------------------------------------- Scheme::validate messages

Scheme::Node make_leaf(int port) {
  Scheme::Node n;
  n.port = port;
  return n;
}

Scheme::Node make_block(MergeKind kind, std::vector<Scheme::Node> children,
                        bool parallel = false) {
  Scheme::Node n;
  n.kind = kind;
  n.parallel = parallel;
  n.children = std::move(children);
  return n;
}

TEST(SchemeValidate, AcceptsEveryPaperScheme) {
  for (const Scheme& s : Scheme::paper_schemes_4t())
    EXPECT_EQ(Scheme::validate(s.root()), "") << s.name();
  EXPECT_EQ(Scheme::validate(Scheme::single_thread().root()), "");
  EXPECT_EQ(Scheme::validate(Scheme::imt(kMaxThreads).root()), "");
}

TEST(SchemeValidate, RejectsDuplicateThreadIds) {
  std::vector<Scheme::Node> kids;
  kids.push_back(make_leaf(0));
  kids.push_back(make_leaf(0));
  const std::string err =
      Scheme::validate(make_block(MergeKind::kSmt, std::move(kids)));
  EXPECT_NE(err.find("duplicate thread id 0"), std::string::npos) << err;
  expect_rejected("S(0,0)");
}

TEST(SchemeValidate, RejectsEmptyAndSingleInputMergeArms) {
  const std::string empty =
      Scheme::validate(make_block(MergeKind::kSelect, {}));
  EXPECT_NE(empty.find("no inputs"), std::string::npos) << empty;
  EXPECT_NE(empty.find("select"), std::string::npos) << empty;

  std::vector<Scheme::Node> one;
  one.push_back(make_leaf(0));
  const std::string single =
      Scheme::validate(make_block(MergeKind::kCsmt, std::move(one)));
  EXPECT_NE(single.find("single input"), std::string::npos) << single;
}

TEST(SchemeValidate, RejectsNonDensePorts) {
  std::vector<Scheme::Node> kids;
  kids.push_back(make_leaf(0));
  kids.push_back(make_leaf(2));
  const std::string err =
      Scheme::validate(make_block(MergeKind::kCsmt, std::move(kids)));
  EXPECT_NE(err.find("dense 0..N-1"), std::string::npos) << err;
}

TEST(SchemeValidate, RejectsLeafWithChildren) {
  Scheme::Node bad = make_leaf(0);
  bad.children.push_back(make_leaf(1));
  const std::string err = Scheme::validate(bad);
  EXPECT_NE(err.find("must not have children"), std::string::npos) << err;
}

TEST(SchemeValidate, RejectsParallelNonCsmt) {
  std::vector<Scheme::Node> kids;
  kids.push_back(make_leaf(0));
  kids.push_back(make_leaf(1));
  const std::string err = Scheme::validate(
      make_block(MergeKind::kSmt, std::move(kids), /*parallel=*/true));
  EXPECT_NE(err.find("parallel"), std::string::npos) << err;
}

TEST(SchemeValidate, RejectsTooManyThreads) {
  std::vector<Scheme::Node> kids;
  for (int p = 0; p <= kMaxThreads; ++p) kids.push_back(make_leaf(p));
  const std::string err =
      Scheme::validate(make_block(MergeKind::kCsmt, std::move(kids), true));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(SchemeParse, CanonicalLeafRoundTrips) {
  // canonical() of the 1-thread scheme is "0"; parse must round-trip it
  // (a bare non-zero port fails dense-port validation instead).
  const Scheme s = Scheme::parse("0");
  EXPECT_EQ(s.num_threads(), 1);
  EXPECT_EQ(s.canonical(), "0");
  EXPECT_EQ(Scheme::parse(Scheme::single_thread().canonical()).canonical(),
            "0");
  expect_rejected("5");
}

TEST(Scheme, SixteenThreadSchemesSupported) {
  EXPECT_EQ(Scheme::parallel_csmt(16).num_threads(), 16);
  EXPECT_EQ(Scheme::parse("C16").count_blocks(MergeKind::kCsmt), 1);
  std::vector<MergeKind> levels(15, MergeKind::kCsmt);
  EXPECT_EQ(Scheme::cascade(levels).num_threads(), 16);
}

}  // namespace
}  // namespace cvmt
