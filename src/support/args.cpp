#include "support/args.hpp"

#include <charconv>
#include <cstdio>
#include <iostream>
#include <ostream>

#include "support/check.hpp"

namespace cvmt {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

namespace {

void check_new_name(std::string_view name) {
  CVMT_CHECK_MSG(!name.empty() && name.substr(0, 2) != "--",
                 "option names are declared without the leading --");
}

}  // namespace

void ArgParser::add_flag(std::string name, std::string help) {
  check_new_name(name);
  Option opt;
  opt.name = std::move(name);
  opt.help = std::move(help);
  opt.kind = OptKind::kFlag;
  options_.push_back(std::move(opt));
}

void ArgParser::add_u64(std::string name, std::string value_name,
                        std::string help) {
  check_new_name(name);
  Option opt;
  opt.name = std::move(name);
  opt.value_name = std::move(value_name);
  opt.help = std::move(help);
  opt.kind = OptKind::kU64;
  options_.push_back(std::move(opt));
}

void ArgParser::add_double(std::string name, std::string value_name,
                           std::string help) {
  check_new_name(name);
  Option opt;
  opt.name = std::move(name);
  opt.value_name = std::move(value_name);
  opt.help = std::move(help);
  opt.kind = OptKind::kDouble;
  options_.push_back(std::move(opt));
}

void ArgParser::add_string(std::string name, std::string value_name,
                           std::string help,
                           std::vector<std::string> choices) {
  check_new_name(name);
  Option opt;
  opt.name = std::move(name);
  opt.value_name = std::move(value_name);
  opt.help = std::move(help);
  opt.choices = std::move(choices);
  opt.kind = OptKind::kString;
  options_.push_back(std::move(opt));
}

void ArgParser::add_positional(std::string name, std::string help) {
  positional_specs_.push_back({std::move(name), std::move(help)});
}

ArgParser::Option* ArgParser::find(std::string_view name) {
  for (Option& opt : options_)
    if (opt.name == name) return &opt;
  return nullptr;
}

const ArgParser::Option* ArgParser::find(std::string_view name) const {
  for (const Option& opt : options_)
    if (opt.name == name) return &opt;
  return nullptr;
}

const ArgParser::Option& ArgParser::require(std::string_view name,
                                            OptKind kind) const {
  const Option* opt = find(name);
  CVMT_CHECK_MSG(opt != nullptr,
                 "undeclared option queried: " + std::string(name));
  CVMT_CHECK_MSG(opt->kind == kind,
                 "option kind mismatch for: " + std::string(name));
  return *opt;
}

bool ArgParser::apply_value(Option& opt, std::string_view value) {
  switch (opt.kind) {
    case OptKind::kFlag:
      CVMT_CHECK_MSG(false, "flags take no value");
      return false;
    case OptKind::kU64: {
      std::uint64_t v = 0;
      const auto [p, ec] =
          std::from_chars(value.data(), value.data() + value.size(), v);
      if (ec != std::errc() || p != value.data() + value.size() ||
          value.empty()) {
        std::fprintf(stderr,
                     "%s: --%s expects a non-negative integer, got \"%.*s\"\n",
                     program_.c_str(), opt.name.c_str(),
                     static_cast<int>(value.size()), value.data());
        return false;
      }
      opt.u64_value = v;
      return true;
    }
    case OptKind::kDouble: {
      double v = 0.0;
      const auto [p, ec] =
          std::from_chars(value.data(), value.data() + value.size(), v);
      if (ec != std::errc() || p != value.data() + value.size() ||
          value.empty()) {
        std::fprintf(stderr, "%s: --%s expects a number, got \"%.*s\"\n",
                     program_.c_str(), opt.name.c_str(),
                     static_cast<int>(value.size()), value.data());
        return false;
      }
      opt.double_value = v;
      return true;
    }
    case OptKind::kString: {
      if (!opt.choices.empty()) {
        bool ok = false;
        for (const std::string& c : opt.choices) ok = ok || c == value;
        if (!ok) {
          std::string all;
          for (const std::string& c : opt.choices)
            all += (all.empty() ? "" : "|") + c;
          std::fprintf(stderr, "%s: --%s expects one of %s, got \"%.*s\"\n",
                       program_.c_str(), opt.name.c_str(), all.c_str(),
                       static_cast<int>(value.size()), value.data());
          return false;
        }
      }
      opt.string_value = std::string(value);
      return true;
    }
  }
  return false;
}

ArgParser::Outcome ArgParser::parse(int argc, const char* const* argv) {
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (flags_done || arg.size() < 2 || arg.substr(0, 2) != "--") {
      positionals_.emplace_back(arg);
      continue;
    }
    if (arg == "--") {
      flags_done = true;
      continue;
    }
    if (arg == "--help") {
      print_help(std::cout);
      return Outcome::kHelp;
    }
    std::string_view name = arg.substr(2);
    std::string_view value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string_view::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    Option* opt = find(name);
    if (opt == nullptr) {
      std::fprintf(stderr, "%s: unknown option --%.*s (try --help)\n",
                   program_.c_str(), static_cast<int>(name.size()),
                   name.data());
      return Outcome::kError;
    }
    if (opt->set) {
      // Passing a flag twice is almost always a stale shell-history edit;
      // silently letting the last one win hides the mistake.
      std::fprintf(stderr, "%s: duplicate option --%s\n", program_.c_str(),
                   opt->name.c_str());
      return Outcome::kError;
    }
    if (opt->kind == OptKind::kFlag) {
      if (has_value) {
        std::fprintf(stderr, "%s: --%s takes no value\n", program_.c_str(),
                     opt->name.c_str());
        return Outcome::kError;
      }
      opt->flag_value = true;
      opt->set = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --%s requires a value (try --help)\n",
                     program_.c_str(), opt->name.c_str());
        return Outcome::kError;
      }
      value = argv[++i];
    }
    if (!apply_value(*opt, value)) return Outcome::kError;
    opt->set = true;
  }
  if (positionals_.size() > positional_specs_.size()) {
    std::fprintf(stderr,
                 "%s: too many positional arguments (%zu given, at most "
                 "%zu expected; try --help)\n",
                 program_.c_str(), positionals_.size(),
                 positional_specs_.size());
    return Outcome::kError;
  }
  return Outcome::kOk;
}

bool ArgParser::set_on_cli(std::string_view name) const {
  const Option* opt = find(name);
  CVMT_CHECK_MSG(opt != nullptr,
                 "undeclared option queried: " + std::string(name));
  return opt->set;
}

bool ArgParser::get_flag(std::string_view name) const {
  const Option& opt = require(name, OptKind::kFlag);
  return opt.set && opt.flag_value;
}

std::uint64_t ArgParser::get_u64(std::string_view name,
                                 std::uint64_t fallback) const {
  const Option& opt = require(name, OptKind::kU64);
  return opt.set ? opt.u64_value : fallback;
}

double ArgParser::get_double(std::string_view name, double fallback) const {
  const Option& opt = require(name, OptKind::kDouble);
  return opt.set ? opt.double_value : fallback;
}

std::string ArgParser::get_string(std::string_view name,
                                  std::string_view fallback) const {
  const Option& opt = require(name, OptKind::kString);
  return opt.set ? opt.string_value : std::string(fallback);
}

const std::string& ArgParser::positional(std::size_t i) const {
  CVMT_CHECK_MSG(i < positionals_.size(),
                 "positional argument index out of range");
  return positionals_[i];
}

std::string ArgParser::positional_or(std::size_t i,
                                     std::string_view fallback) const {
  return i < positionals_.size() ? positionals_[i] : std::string(fallback);
}

std::vector<std::string> ArgParser::cli_set_names() const {
  std::vector<std::string> names;
  for (const Option& opt : options_)
    if (opt.set) names.push_back(opt.name);
  return names;
}

void ArgParser::print_help(std::ostream& os) const {
  os << "usage: " << program_ << " [options]";
  for (const PositionalSpec& p : positional_specs_)
    os << " [" << p.name << "]";
  os << "\n\n" << description_ << "\n";
  if (!positional_specs_.empty()) {
    os << "\npositional arguments:\n";
    for (const PositionalSpec& p : positional_specs_)
      os << "  " << p.name << "\n      " << p.help << "\n";
  }
  os << "\noptions:\n";
  for (const Option& opt : options_) {
    os << "  --" << opt.name;
    if (opt.kind != OptKind::kFlag) os << "=<" << opt.value_name << ">";
    os << "\n      " << opt.help;
    if (!opt.choices.empty()) {
      os << " (one of:";
      for (const std::string& c : opt.choices) os << ' ' << c;
      os << ')';
    }
    os << "\n";
  }
  os << "  --help\n      Show this help text.\n";
}

}  // namespace cvmt
