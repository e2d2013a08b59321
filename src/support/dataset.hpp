// Dataset: the generic result type every experiment runner returns at the
// render boundary. A Dataset is a small column-typed table — named columns
// with a declared type and formatting hints, row-major cells in stable
// insertion order — that renders to an aligned ASCII table (byte-identical
// to the historical per-figure TableWriter output), to CSV (full numeric
// precision) or to JSON (typed values). It is written, never read back:
// nothing parses CSV or JSON into a Dataset.
//
// Each runner fills its Datasets straight from its batch results, with no
// typed row struct in between; tests read the values back through
// col_index() and real_at().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "support/json.hpp"
#include "support/table.hpp"

namespace cvmt {

enum class ColumnType : std::uint8_t {
  kString,
  kReal,  ///< double; table/CSV text uses `decimals` fixed digits
  kInt,   ///< int64; table text honours `grouped`
};

[[nodiscard]] std::string_view to_string(ColumnType t);

/// Declaration of one Dataset column: the value type plus the formatting
/// hints that reproduce the paper-style table rendering.
struct ColumnSpec {
  std::string name;
  ColumnType type = ColumnType::kString;
  int decimals = 2;        ///< kReal: fixed fractional digits in tables
  bool grouped = false;    ///< kInt: thousands separators in tables
  std::string suffix;      ///< appended to table text ("%", "x")
  std::string null_text;   ///< table text for a null cell (default "")

  [[nodiscard]] static ColumnSpec str(std::string name);
  [[nodiscard]] static ColumnSpec real(std::string name, int decimals = 2,
                                       std::string suffix = {});
  [[nodiscard]] static ColumnSpec integer(std::string name,
                                          bool grouped = false);
};

/// One cell: null (monostate), string, real or integer. Non-null cells
/// must match their column's declared type (checked on insertion).
using Cell = std::variant<std::monostate, std::string, double, std::int64_t>;

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<ColumnSpec> columns);

  [[nodiscard]] const std::vector<ColumnSpec>& columns() const {
    return columns_;
  }
  [[nodiscard]] std::size_t num_cols() const { return columns_.size(); }
  /// Data rows only; separators are not counted.
  [[nodiscard]] std::size_t num_rows() const;
  /// Index of the named column; throws CheckError when absent.
  [[nodiscard]] std::size_t col_index(std::string_view name) const;

  /// Appends a row. Arity must match the column count and every non-null
  /// cell must match its column type (CVMT_CHECK otherwise).
  void add_row(std::vector<Cell> cells);
  /// Appends a horizontal separator (rendered as a rule in tables,
  /// skipped in CSV/JSON).
  void add_separator();

  /// The cell of data row `row` (separator rows are transparent).
  [[nodiscard]] const Cell& cell(std::size_t row, std::size_t col) const;
  [[nodiscard]] double real_at(std::size_t row, std::size_t col) const;
  [[nodiscard]] std::int64_t int_at(std::size_t row, std::size_t col) const;
  [[nodiscard]] const std::string& str_at(std::size_t row,
                                          std::size_t col) const;

  /// Table text of one cell (formatting hints + suffix applied).
  [[nodiscard]] std::string format_cell(std::size_t row,
                                        std::size_t col) const;

  /// Renders to the aligned-ASCII TableWriter (the legacy bench look,
  /// byte-identical to the historical per-figure renderers).
  [[nodiscard]] TableWriter to_table() const;

  /// Machine-readable CSV: header row then data rows. Reals are written
  /// with shortest-round-trip precision (not the table's fixed decimals),
  /// strings are quoted only when they contain ',', '"' or newlines.
  void write_csv(std::ostream& os) const;

  /// JSON object {"columns":[{"name","type"},...],"rows":[[...],...]}.
  /// Null cells become JSON null; separators are dropped.
  [[nodiscard]] JsonValue to_json() const;

 private:
  std::vector<ColumnSpec> columns_;
  std::vector<std::vector<Cell>> rows_;  ///< empty vector = separator
};

}  // namespace cvmt
