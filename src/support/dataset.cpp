#include "support/dataset.hpp"

#include <array>
#include <charconv>
#include <ostream>

#include "support/check.hpp"
#include "support/string_util.hpp"

namespace cvmt {

std::string_view to_string(ColumnType t) {
  switch (t) {
    case ColumnType::kString: return "string";
    case ColumnType::kReal: return "real";
    case ColumnType::kInt: return "int";
  }
  return "?";
}

ColumnSpec ColumnSpec::str(std::string name) {
  ColumnSpec c;
  c.name = std::move(name);
  c.type = ColumnType::kString;
  return c;
}

ColumnSpec ColumnSpec::real(std::string name, int decimals,
                            std::string suffix) {
  ColumnSpec c;
  c.name = std::move(name);
  c.type = ColumnType::kReal;
  c.decimals = decimals;
  c.suffix = std::move(suffix);
  return c;
}

ColumnSpec ColumnSpec::integer(std::string name, bool grouped) {
  ColumnSpec c;
  c.name = std::move(name);
  c.type = ColumnType::kInt;
  c.grouped = grouped;
  return c;
}

Dataset::Dataset(std::vector<ColumnSpec> columns)
    : columns_(std::move(columns)) {
  CVMT_CHECK_MSG(!columns_.empty(), "Dataset needs at least one column");
}

std::size_t Dataset::num_rows() const {
  std::size_t n = 0;
  for (const auto& row : rows_)
    if (!row.empty()) ++n;
  return n;
}

std::size_t Dataset::col_index(std::string_view name) const {
  for (std::size_t c = 0; c < columns_.size(); ++c)
    if (columns_[c].name == name) return c;
  CVMT_CHECK_MSG(false, "unknown Dataset column: " + std::string(name));
  __builtin_unreachable();
}

void Dataset::add_row(std::vector<Cell> cells) {
  CVMT_CHECK_MSG(cells.size() == columns_.size(),
                 "row width must match the declared columns");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    if (std::holds_alternative<std::monostate>(cell)) continue;
    const ColumnType t = columns_[c].type;
    const bool ok =
        (t == ColumnType::kString &&
         std::holds_alternative<std::string>(cell)) ||
        (t == ColumnType::kReal && std::holds_alternative<double>(cell)) ||
        (t == ColumnType::kInt &&
         std::holds_alternative<std::int64_t>(cell));
    CVMT_CHECK_MSG(ok, "cell type does not match column '" +
                           columns_[c].name + "'");
  }
  rows_.push_back(std::move(cells));
}

void Dataset::add_separator() { rows_.emplace_back(); }

const Cell& Dataset::cell(std::size_t row, std::size_t col) const {
  CVMT_CHECK(col < columns_.size());
  std::size_t n = 0;
  for (const auto& r : rows_) {
    if (r.empty()) continue;
    if (n == row) return r[col];
    ++n;
  }
  CVMT_CHECK_MSG(false, "Dataset row index out of range");
  __builtin_unreachable();
}

double Dataset::real_at(std::size_t row, std::size_t col) const {
  return std::get<double>(cell(row, col));
}

std::int64_t Dataset::int_at(std::size_t row, std::size_t col) const {
  return std::get<std::int64_t>(cell(row, col));
}

const std::string& Dataset::str_at(std::size_t row, std::size_t col) const {
  return std::get<std::string>(cell(row, col));
}

namespace {

std::string format_typed(const ColumnSpec& spec, const Cell& cell) {
  if (std::holds_alternative<std::monostate>(cell)) return spec.null_text;
  std::string text;
  switch (spec.type) {
    case ColumnType::kString: text = std::get<std::string>(cell); break;
    case ColumnType::kReal:
      text = format_fixed(std::get<double>(cell), spec.decimals);
      break;
    case ColumnType::kInt: {
      const std::int64_t v = std::get<std::int64_t>(cell);
      text = spec.grouped ? format_grouped(v) : std::to_string(v);
      break;
    }
  }
  return text + spec.suffix;
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string round_trip_real(double d) {
  std::array<char, 32> buf{};
  const auto [end, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), d);
  CVMT_CHECK(ec == std::errc());
  return std::string(buf.data(), static_cast<std::size_t>(end - buf.data()));
}

}  // namespace

std::string Dataset::format_cell(std::size_t row, std::size_t col) const {
  return format_typed(columns_[col], cell(row, col));
}

TableWriter Dataset::to_table() const {
  std::vector<std::string> header;
  header.reserve(columns_.size());
  for (const ColumnSpec& c : columns_) header.push_back(c.name);
  TableWriter t(std::move(header));
  for (const auto& row : rows_) {
    if (row.empty()) {
      t.add_separator();
      continue;
    }
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c)
      cells.push_back(format_typed(columns_[c], row[c]));
    t.add_row(std::move(cells));
  }
  return t;
}

void Dataset::write_csv(std::ostream& os) const {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c) os << ',';
    os << csv_escape(columns_[c].name);
  }
  os << '\n';
  for (const auto& row : rows_) {
    if (row.empty()) continue;
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      const Cell& cell = row[c];
      if (std::holds_alternative<std::monostate>(cell)) continue;
      switch (columns_[c].type) {
        case ColumnType::kString:
          os << csv_escape(std::get<std::string>(cell));
          break;
        case ColumnType::kReal:
          os << round_trip_real(std::get<double>(cell));
          break;
        case ColumnType::kInt: os << std::get<std::int64_t>(cell); break;
      }
    }
    os << '\n';
  }
}

JsonValue Dataset::to_json() const {
  JsonValue out = JsonValue::object();
  out.reserve(2);
  add_json_members(out);
  return out;
}

void Dataset::add_json_members(JsonValue& out) const {
  JsonValue cols = JsonValue::array();
  cols.reserve(columns_.size());
  for (const ColumnSpec& c : columns_) {
    JsonValue col = JsonValue::object();
    col.reserve(2);
    col.set("name", c.name);
    col.set("type", to_string(c.type));
    cols.push_back(std::move(col));
  }
  JsonValue rows = JsonValue::array();
  rows.reserve(num_rows());
  for (const auto& row : rows_) {
    if (row.empty()) continue;
    JsonValue jrow = JsonValue::array();
    jrow.reserve(row.size());
    for (const Cell& cell : row) {
      if (std::holds_alternative<std::monostate>(cell))
        jrow.push_back(JsonValue());
      else if (const auto* s = std::get_if<std::string>(&cell))
        jrow.push_back(*s);
      else if (const auto* d = std::get_if<double>(&cell))
        jrow.push_back(*d);
      else
        jrow.push_back(std::get<std::int64_t>(cell));
    }
    rows.push_back(std::move(jrow));
  }
  out.set("columns", std::move(cols));
  out.set("rows", std::move(rows));
}

}  // namespace cvmt
