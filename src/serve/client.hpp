// `cvmt client` — the scripted counterpart of `cvmt serve`: one-shot
// requests (ping / stats / shutdown / experiment / run), raw
// request lines for protocol-level scripting, and a multi-connection
// pipelined load generator with client-side latency percentiles and
// request-id accounting (the CI smoke test's "zero lost jobs" assertion
// is this accounting).
#pragma once

namespace cvmt {

/// `cvmt client --port=N <action>`; see --help for the actions. Exit 0 on
/// a successful request (and, in load mode, clean accounting), 1 on an
/// error response or accounting failure, 2 on usage errors.
[[nodiscard]] int client_main(int argc, const char* const* argv);

}  // namespace cvmt
