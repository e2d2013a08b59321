// Dataset: column typing, table formatting hints, and the exact CSV and
// JSON text it writes.
#include <gtest/gtest.h>

#include <sstream>

#include "support/check.hpp"
#include "support/dataset.hpp"

namespace cvmt {
namespace {

Dataset sample() {
  Dataset d({ColumnSpec::str("Scheme"), ColumnSpec::real("IPC"),
             ColumnSpec::integer("Transistors", /*grouped=*/true),
             ColumnSpec::real("Gain", 1, "%")});
  d.add_row({std::string("2SC3"), 5.2375, Cell{std::int64_t{4'384}}, 14.5});
  d.add_separator();
  d.add_row({std::string("3SSS"), 5.98, Cell{std::int64_t{13'128}},
             std::monostate{}});
  return d;
}

TEST(Dataset, ColumnTypingIsEnforced) {
  Dataset d({ColumnSpec::str("a"), ColumnSpec::real("b"),
             ColumnSpec::integer("c")});
  // Width mismatch.
  EXPECT_THROW(d.add_row({std::string("x"), 1.0}), CheckError);
  // Type mismatch per column.
  EXPECT_THROW(d.add_row({1.0, 1.0, Cell{std::int64_t{1}}}), CheckError);
  EXPECT_THROW(
      d.add_row({std::string("x"), Cell{std::int64_t{1}}, Cell{std::int64_t{1}}}),
      CheckError);
  EXPECT_THROW(d.add_row({std::string("x"), 1.0, 2.0}), CheckError);
  // Null is allowed anywhere.
  d.add_row({std::monostate{}, std::monostate{}, std::monostate{}});
  EXPECT_EQ(d.num_rows(), 1u);
}

TEST(Dataset, AccessorsAndColIndex) {
  const Dataset d = sample();
  EXPECT_EQ(d.num_rows(), 2u);  // separator not counted
  EXPECT_EQ(d.num_cols(), 4u);
  EXPECT_EQ(d.col_index("Transistors"), 2u);
  EXPECT_THROW((void)d.col_index("nope"), CheckError);
  EXPECT_EQ(d.str_at(0, 0), "2SC3");
  EXPECT_DOUBLE_EQ(d.real_at(0, 1), 5.2375);
  EXPECT_EQ(d.int_at(1, 2), 13'128);
  EXPECT_THROW((void)d.cell(2, 0), CheckError);
}

TEST(Dataset, TableFormattingHonoursHints) {
  const Dataset d = sample();
  EXPECT_EQ(d.format_cell(0, 1), "5.24");    // real, 2 decimals
  EXPECT_EQ(d.format_cell(0, 2), "4,384");   // grouped int
  EXPECT_EQ(d.format_cell(0, 3), "14.5%");   // suffix
  EXPECT_EQ(d.format_cell(1, 3), "");        // null renders empty
  std::ostringstream os;
  d.to_table().print(os);
  EXPECT_NE(os.str().find("| 2SC3"), std::string::npos);
  EXPECT_NE(os.str().find("4,384"), std::string::npos);
}

TEST(Dataset, NullTextIsPerColumn) {
  ColumnSpec c = ColumnSpec::real("x", 1);
  c.null_text = "-";
  Dataset d({c});
  d.add_row({std::monostate{}});
  EXPECT_EQ(d.format_cell(0, 0), "-");
}

// CSV carries shortest-round-trip reals (not the table's fixed
// decimals), no grouping or suffix, an empty field for a null cell, and
// no separator rows.
TEST(Dataset, CsvRoundTripIsExact) {
  std::ostringstream os;
  sample().write_csv(os);
  EXPECT_EQ(os.str(),
            "Scheme,IPC,Transistors,Gain\n"
            "2SC3,5.2375,4384,14.5\n"
            "3SSS,5.98,13128,\n");

  Dataset d({ColumnSpec::real("x", 1)});
  d.add_row({0.1 + 0.2});
  std::ostringstream third;
  d.write_csv(third);
  EXPECT_EQ(third.str(), "x\n0.30000000000000004\n");
}

TEST(Dataset, CsvQuotesSpecialCharacters) {
  Dataset d({ColumnSpec::str("a"), ColumnSpec::str("b,c")});
  d.add_row({std::string("x,y"), std::string("say \"hi\"\nthere")});
  d.add_row({std::string("plain"), std::string("cr\r")});
  std::ostringstream os;
  d.write_csv(os);
  EXPECT_EQ(os.str(),
            "a,\"b,c\"\n"
            "\"x,y\",\"say \"\"hi\"\"\nthere\"\n"
            "plain,\"cr\r\"\n");
}

// JSON carries the column types, typed cells, null for a null cell, and
// no separator rows.
TEST(Dataset, JsonRoundTripPreservesCellsAndTypes) {
  EXPECT_EQ(sample().to_json().dump(-1),
            R"({"columns":[{"name":"Scheme","type":"string"},)"
            R"({"name":"IPC","type":"real"},)"
            R"({"name":"Transistors","type":"int"},)"
            R"({"name":"Gain","type":"real"}],)"
            R"("rows":[["2SC3",5.2375,4384,14.5],)"
            R"(["3SSS",5.98,13128,null]]})");
}

TEST(Dataset, EmptyColumnsRejected) {
  EXPECT_THROW(Dataset(std::vector<ColumnSpec>{}), CheckError);
}

}  // namespace
}  // namespace cvmt
