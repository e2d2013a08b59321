#include "support/table.hpp"

#include <algorithm>
#include <ostream>

#include "support/check.hpp"

namespace cvmt {

TableWriter::TableWriter(std::vector<std::string> header)
    : header_(std::move(header)) {
  CVMT_CHECK(!header_.empty());
}

void TableWriter::add_row(std::vector<std::string> cells) {
  CVMT_CHECK_MSG(cells.size() == header_.size(),
                 "row width must match header width");
  rows_.push_back(std::move(cells));
}

void TableWriter::add_separator() { rows_.emplace_back(); }

void TableWriter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  const auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " | ");
      os << row[c] << std::string(widths[c] - row[c].size(), ' ');
    }
    os << " |\n";
  };
  const auto print_rule = [&] {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << (c == 0 ? "+-" : "-+-");
      os << std::string(widths[c], '-');
    }
    os << "-+\n";
  };

  print_rule();
  print_row(header_);
  print_rule();
  for (const auto& row : rows_) {
    if (row.empty())
      print_rule();
    else
      print_row(row);
  }
  print_rule();
}

void print_banner(std::ostream& os, const std::string& title) {
  os << '\n' << "== " << title << " ==\n\n";
}

}  // namespace cvmt
