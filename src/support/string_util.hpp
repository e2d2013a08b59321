// Small string helpers shared by the scheme parser and report writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cvmt {

/// Splits `s` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Uppercases ASCII letters.
[[nodiscard]] std::string to_upper(std::string_view s);

/// At most the first 64 bytes of `s`, with "..." appended when cut.
/// Error messages echo untrusted input through this, so a huge request
/// cannot produce a huge response.
[[nodiscard]] std::string excerpt(std::string_view s);

/// Strict unsigned parse of a whole token. strtoull alone is too
/// permissive for config surfaces: it skips a leading sign (negating
/// modulo 2^64, so "-1" becomes 18446744073709551615) and stops at the
/// first non-digit ("123abc" parses as 123, "abc" as 0). This requires
/// every character to be consumed, forbids signs and leading whitespace,
/// and rejects out-of-range values. `base` is 10, or 0 to also accept
/// 0x-prefixed hex (slot masks, addresses). Returns false without
/// touching `out` on any rejection.
[[nodiscard]] bool parse_u64_token(std::string_view tok, std::uint64_t& out,
                                   int base = 10);

/// The double counterpart: full-token, unsigned, finite. Returns false
/// without touching `out` otherwise.
[[nodiscard]] bool parse_double_token(std::string_view tok, double& out);

/// Formats `value` with `decimals` fractional digits (locale-independent).
[[nodiscard]] std::string format_fixed(double value, int decimals);

/// Formats an integer with thousands separators ("12,345").
[[nodiscard]] std::string format_grouped(long long value);

}  // namespace cvmt
