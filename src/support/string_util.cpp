#include "support/string_util.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace cvmt {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (char& c : out)
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

std::string excerpt(std::string_view s) {
  constexpr std::size_t kMaxBytes = 64;
  std::string out(s.substr(0, kMaxBytes));
  if (s.size() > kMaxBytes) out += "...";
  return out;
}

bool parse_u64_token(std::string_view tok, std::uint64_t& out, int base) {
  if (tok.empty()) return false;
  const char front = tok.front();
  if (front == '-' || front == '+' ||
      std::isspace(static_cast<unsigned char>(front)))
    return false;
  const std::string buf(tok);  // strtoull needs a terminator
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, base);
  if (end != buf.c_str() + buf.size() || end == buf.c_str() ||
      errno == ERANGE)
    return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_double_token(std::string_view tok, double& out) {
  if (tok.empty()) return false;
  const char front = tok.front();
  if (front == '-' || front == '+' ||
      std::isspace(static_cast<unsigned char>(front)))
    return false;
  const std::string buf(tok);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || end == buf.c_str() ||
      errno == ERANGE || !std::isfinite(v))
    return false;
  out = v;
  return true;
}

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

std::string format_grouped(long long value) {
  const bool neg = value < 0;
  unsigned long long v =
      neg ? 0ULL - static_cast<unsigned long long>(value)
          : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(v);
  std::string out;
  int run = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (run == 3) {
      out.push_back(',');
      run = 0;
    }
    out.push_back(*it);
    ++run;
  }
  if (neg) out.push_back('-');
  return {out.rbegin(), out.rend()};
}

}  // namespace cvmt
