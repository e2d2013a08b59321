// Aligned ASCII table rendering for the cvmt driver and the examples.
//
// Dataset::to_table() renders every experiment table through TableWriter;
// machine-readable output is Dataset's CSV and JSON, not this class.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace cvmt {

/// Column-aligned table builder. Usage:
///   TableWriter t({"Benchmark", "IPCr", "IPCp"});
///   t.add_row({"mcf", "0.96", "1.34"});
///   t.print(std::cout);
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> header);

  /// Appends a row; must have exactly as many cells as the header.
  void add_row(std::vector<std::string> cells);

  /// Appends a horizontal separator line.
  void add_separator();

  /// Renders with padded columns and a header rule.
  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t num_cols() const { return header_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;  // empty vector = separator
};

/// Prints a figure/table banner ("== Figure 10: ... ==").
void print_banner(std::ostream& os, const std::string& title);

}  // namespace cvmt
