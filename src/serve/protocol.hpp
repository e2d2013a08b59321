// The serve wire protocol: line-delimited JSON over TCP.
//
// Each request is one compact JSON object on one line (max
// kMaxRequestLine bytes), each response one JSON object on one line.
// Responses carry the request's "id" verbatim, so clients may pipeline
// arbitrarily many requests per connection and match responses by id —
// the server writes a response as soon as its job finishes, which is NOT
// necessarily request order.
//
//   request  := {"id": <any json>, "type": <type>, ...type fields}
//   type     := "experiment" | "run" | "stats" | "ping" | "shutdown"
//   response := {"id": <echoed>, "ok": true,  "result": {...}}
//             | {"id": <echoed>, "ok": false, "error":
//                  {"code": <code>, "message": <text>
//                   [, "retry_after_ms": N]}}
//
// An experiment's "params" and a run's "config" are knob objects, resolved
// by ExperimentParams::from_json, the resolver `cvmt run` and `cvmt merge`
// use: the same input is accepted or rejected, with the same message, on
// every path, with one exception: "machine" takes only a built-in machine
// name here, checked before anything could open a path, so a request can
// make the daemon read no file.
//
// Error codes are a closed set (serve_error_code_name); "overloaded"
// carries retry_after_ms — the admission queue was full and the client
// should back off, nothing was executed. The full grammar, the
// backpressure policy and the drain semantics live in DESIGN.md §11.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "exp/params.hpp"
#include "support/json.hpp"

namespace cvmt {

/// Hard cap on one request line, counted without its "\n" or "\r\n"
/// terminator. A line that exceeds this is answered with an "oversized"
/// error and the connection is closed (the framing cannot be
/// resynchronized once a line is abandoned mid-way).
inline constexpr std::size_t kMaxRequestLine = 1 << 20;

enum class RequestType : std::uint8_t {
  kExperiment,  ///< run a registered experiment, result = its JSON
  kRun,         ///< one simulation: scheme + benchmarks + config
  kStats,       ///< server metrics snapshot (handled inline, never queued)
  kPing,        ///< liveness probe (inline)
  kShutdown,    ///< begin graceful drain (inline; ack precedes the drain)
};

[[nodiscard]] std::string_view to_string(RequestType t);

enum class ServeError : std::uint8_t {
  kBadJson,            ///< request line is not a JSON object
  kBadRequest,         ///< missing/invalid fields, bad scheme/workload...
  kUnknownType,        ///< "type" not in the set above
  kUnknownExperiment,  ///< "experiment" id not in the registry
  kOversized,          ///< request line exceeded kMaxRequestLine
  kOverloaded,         ///< admission queue full; retry_after_ms attached
  kShuttingDown,       ///< server draining; request was not admitted
  kInternal,           ///< unexpected exception while executing
};

[[nodiscard]] std::string_view serve_error_code_name(ServeError e);

/// One parsed request. `id` is echoed into the response verbatim (null
/// when the request had none — including unparseable lines).
struct Request {
  JsonValue id;  // any JSON value; null when absent
  RequestType type = RequestType::kPing;

  // kExperiment
  std::string experiment;
  ExperimentParams params;

  // kRun
  std::string scheme;
  std::vector<std::string> benchmarks;
  SimConfig run_config;
};

/// Thrown by parse_request: the error class plus the client-facing
/// message, plus the request id when one could be extracted before the
/// failure (so even a rejected request gets an addressable response).
class RequestError : public std::runtime_error {
 public:
  RequestError(ServeError code, const std::string& message,
               JsonValue id = {})
      : std::runtime_error(message), code_(code), id_(std::move(id)) {}
  [[nodiscard]] ServeError code() const { return code_; }
  [[nodiscard]] const JsonValue& id() const { return id_; }

 private:
  ServeError code_;
  JsonValue id_;
};

/// Parses one request line; throws RequestError on malformed input (every
/// CheckError from a field reader or the resolver becomes bad_request with
/// the request's id). Parameter resolution is self-contained: defaults +
/// request fields only — the daemon's own flags never reach a request, so
/// identical requests yield identical results on any server.
[[nodiscard]] Request parse_request(std::string_view line);

// --- response builders (compact single-line JSON, no trailing \n) --------

[[nodiscard]] std::string ok_response(const JsonValue& id,
                                      JsonValue result);
[[nodiscard]] std::string error_response(const JsonValue& id, ServeError e,
                                         std::string_view message,
                                         std::uint64_t retry_after_ms = 0);

/// Serializes any response object to its wire form (one line).
[[nodiscard]] std::string response_line(const JsonValue& response);

}  // namespace cvmt
