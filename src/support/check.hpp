// Lightweight invariant checking.
//
// CVMT_CHECK is always on (simulation correctness depends on it: a merge
// engine that silently issues a conflicting packet would corrupt every
// downstream figure). CVMT_DCHECK compiles out in NDEBUG builds and is meant
// for hot-loop assertions. CVMT_REQUIRE rejects bad input: its CheckError
// carries the message alone, without the expression and source location
// that a broken invariant reports, because it is addressed to whoever
// typed the flag, request field or scheme name.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace cvmt {

/// Exception thrown when a CVMT_CHECK fails. Deriving from std::logic_error
/// signals a programming error rather than a recoverable runtime condition.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "CVMT_CHECK failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}
}  // namespace detail

}  // namespace cvmt

#define CVMT_CHECK(expr)                                              \
  do {                                                                \
    if (!(expr))                                                      \
      ::cvmt::detail::check_failed(#expr, __FILE__, __LINE__, {});    \
  } while (0)

#define CVMT_CHECK_MSG(expr, msg)                                     \
  do {                                                                \
    if (!(expr))                                                      \
      ::cvmt::detail::check_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)

#define CVMT_REQUIRE(expr, msg)                  \
  do {                                           \
    if (!(expr)) throw ::cvmt::CheckError(msg);  \
  } while (0)

#ifdef NDEBUG
// sizeof keeps the expression name-checked (no unused warnings) without
// evaluating it.
#define CVMT_DCHECK(expr) ((void)sizeof(!(expr)))
#else
#define CVMT_DCHECK(expr) CVMT_CHECK(expr)
#endif
