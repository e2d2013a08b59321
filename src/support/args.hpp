// Command-line flag parser shared by the cvmt driver and the examples.
// A value comes from its flag or, when the flag is absent, from the
// caller's fallback; the environment is never consulted. A malformed
// value is a hard error (parse() fails with a message on stderr).
//
// Syntax: --name=value or --name value; bool flags take no value
// (--name); "--" ends flag parsing; everything else is positional.
// Passing the same option twice on one command line is an error (last-
// one-wins would silently hide stale shell-history edits).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace cvmt {

class ArgParser {
 public:
  enum class Outcome : std::uint8_t {
    kOk,
    kHelp,   ///< --help was given; help text already printed
    kError,  ///< malformed input; message already printed to stderr
  };

  /// `program` and `description` head the --help text.
  ArgParser(std::string program, std::string description);

  // Option declarations.
  void add_flag(std::string name, std::string help);
  void add_u64(std::string name, std::string value_name, std::string help);
  /// `choices` non-empty restricts CLI values (error otherwise).
  void add_string(std::string name, std::string value_name,
                  std::string help, std::vector<std::string> choices = {});
  /// Positional parameter, shown in the usage line as [name].
  void add_positional(std::string name, std::string help);

  /// Parses argv. On kError a diagnostic (and a pointer to --help) has
  /// been printed to stderr; on kHelp the help text went to stdout.
  [[nodiscard]] Outcome parse(int argc, const char* const* argv);

  /// True when the option was explicitly set on the command line.
  [[nodiscard]] bool set_on_cli(std::string_view name) const;

  // Getters: the CLI value when the option was given, else `fallback`
  // (false for flags).
  [[nodiscard]] bool get_flag(std::string_view name) const;
  [[nodiscard]] std::uint64_t get_u64(std::string_view name,
                                      std::uint64_t fallback) const;
  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string_view fallback) const;

  [[nodiscard]] std::size_t num_positionals() const {
    return positionals_.size();
  }
  [[nodiscard]] const std::string& positional(std::size_t i) const;
  [[nodiscard]] std::string positional_or(std::size_t i,
                                          std::string_view fallback) const;

  /// Names of options explicitly set on the CLI (used by the driver to
  /// warn about flags an experiment's schema does not consume).
  [[nodiscard]] std::vector<std::string> cli_set_names() const;

  void print_help(std::ostream& os) const;

 private:
  enum class OptKind : std::uint8_t { kFlag, kU64, kString };

  struct Option {
    std::string name;
    std::string value_name;
    std::string help;
    std::vector<std::string> choices;
    OptKind kind = OptKind::kFlag;
    bool set = false;
    bool flag_value = false;
    std::uint64_t u64_value = 0;
    std::string string_value;
  };

  struct PositionalSpec {
    std::string name;
    std::string help;
  };

  [[nodiscard]] Option* find(std::string_view name);
  [[nodiscard]] const Option* find(std::string_view name) const;
  [[nodiscard]] const Option& require(std::string_view name,
                                      OptKind kind) const;
  bool apply_value(Option& opt, std::string_view value);

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  std::vector<PositionalSpec> positional_specs_;
  std::vector<std::string> positionals_;
};

}  // namespace cvmt
