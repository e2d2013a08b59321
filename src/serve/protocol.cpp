#include "serve/protocol.hpp"

#include "core/scheme.hpp"
#include "isa/machine_file.hpp"
#include "support/check.hpp"
#include "support/string_util.hpp"
#include "trace/benchmark_suite.hpp"

namespace cvmt {

std::string_view to_string(RequestType t) {
  switch (t) {
    case RequestType::kExperiment: return "experiment";
    case RequestType::kRun: return "run";
    case RequestType::kStats: return "stats";
    case RequestType::kPing: return "ping";
    case RequestType::kShutdown: return "shutdown";
  }
  return "?";
}

std::string_view serve_error_code_name(ServeError e) {
  switch (e) {
    case ServeError::kBadJson: return "bad_json";
    case ServeError::kBadRequest: return "bad_request";
    case ServeError::kUnknownType: return "unknown_type";
    case ServeError::kUnknownExperiment: return "unknown_experiment";
    case ServeError::kOversized: return "oversized";
    case ServeError::kOverloaded: return "overloaded";
    case ServeError::kShuttingDown: return "shutting_down";
    case ServeError::kInternal: return "internal";
  }
  return "?";
}

namespace {

/// An object-valued member of `doc`; an empty object when absent.
JsonValue object_field(const JsonValue& doc, std::string_view key) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) return JsonValue::object();
  CVMT_REQUIRE(v->kind() == JsonValue::Kind::kObject,
               "field \"" + std::string(key) + "\" must be an object");
  return *v;
}

/// Serve takes only a built-in machine, checked before the knob resolver
/// runs: a request can neither make the daemon open a path nor read back
/// a file's contents in an error message.
void require_builtin_machine(const JsonValue& knobs) {
  const std::string machine = get_string_field(knobs, "machine");
  MachineDescription unused;
  if (machine.empty() || find_builtin_machine(machine, unused)) return;
  std::string names;
  for (const std::string& name : builtin_machine_names()) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  throw CheckError("field \"machine\" must name a built-in machine (" +
                   names + "); serve reads no machine files");
}

/// Fills `req` from a request object. Throws CheckError for a malformed
/// request; parse_request turns it into bad_request.
void parse_fields(const JsonValue& doc, Request& req) {
  const JsonValue* type = doc.find("type");
  CVMT_REQUIRE(type != nullptr && type->kind() == JsonValue::Kind::kString,
               "request needs a string \"type\" field");
  const std::string& t = type->as_string();

  if (t == "ping" || t == "stats" || t == "shutdown") {
    reject_unknown_keys(doc, "request", {"id", "type"});
    req.type = t == "ping"     ? RequestType::kPing
               : t == "stats"  ? RequestType::kStats
                               : RequestType::kShutdown;
    return;
  }

  if (t == "experiment") {
    reject_unknown_keys(doc, "request",
                        {"id", "type", "experiment", "params"});
    req.type = RequestType::kExperiment;
    req.experiment = get_string_field(doc, "experiment");
    CVMT_REQUIRE(!req.experiment.empty(),
                 "experiment request needs an \"experiment\" id");
    // The batch runs inline on the worker that admits the request, so a
    // "workers" knob is resolved like any other but has no effect.
    const JsonValue params = object_field(doc, "params");
    require_builtin_machine(params);
    req.params = ExperimentParams::from_json(params);
    return;
  }

  if (t == "run") {
    reject_unknown_keys(doc, "request",
                        {"id", "type", "scheme", "benchmarks", "config"});
    req.type = RequestType::kRun;
    req.scheme = get_string_field(doc, "scheme");
    CVMT_REQUIRE(!req.scheme.empty(), "run request needs a \"scheme\"");
    try {
      (void)Scheme::parse(req.scheme);
    } catch (const CheckError& e) {
      throw CheckError("bad scheme \"" + excerpt(req.scheme) +
                       "\": " + e.what());
    }
    req.benchmarks = get_string_array(doc, "benchmarks");
    CVMT_REQUIRE(!req.benchmarks.empty(),
                 "run request needs a non-empty \"benchmarks\" array");
    for (const std::string& b : req.benchmarks) {
      try {
        (void)profile_by_name(b);
      } catch (const CheckError&) {
        throw CheckError("unknown benchmark \"" + excerpt(b) + "\"");
      }
    }
    // The simulation knobs of the knob object; the batch and filter
    // knobs have no meaning for a single run.
    const JsonValue config = object_field(doc, "config");
    reject_unknown_keys(config, "\"config\"",
                        {"fast", "budget", "timeslice", "stats", "machine",
                         "clusters", "issue"});
    require_builtin_machine(config);
    req.run_config = ExperimentParams::from_json(config).cfg.sim;
    return;
  }

  throw RequestError(ServeError::kUnknownType,
                     "unknown request type \"" + excerpt(t) + "\"", req.id);
}

}  // namespace

Request parse_request(std::string_view line) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(line);
  } catch (const CheckError& e) {
    throw RequestError(ServeError::kBadJson, e.what());
  }
  if (doc.kind() != JsonValue::Kind::kObject)
    throw RequestError(ServeError::kBadJson,
                       "request must be a JSON object");

  Request req;
  if (const JsonValue* id = doc.find("id")) req.id = *id;
  try {
    parse_fields(doc, req);
  } catch (const CheckError& e) {
    throw RequestError(ServeError::kBadRequest, e.what(), req.id);
  }
  return req;
}

std::string response_line(const JsonValue& response) {
  return response.dump(-1);
}

std::string ok_response(const JsonValue& id, JsonValue result) {
  JsonValue r = JsonValue::object();
  r.set("id", id);
  r.set("ok", true);
  r.set("result", std::move(result));
  return response_line(r);
}

std::string error_response(const JsonValue& id, ServeError e,
                           std::string_view message,
                           std::uint64_t retry_after_ms) {
  JsonValue err = JsonValue::object();
  err.set("code", serve_error_code_name(e));
  err.set("message", message);
  if (e == ServeError::kOverloaded)
    err.set("retry_after_ms", retry_after_ms);
  JsonValue r = JsonValue::object();
  r.set("id", id);
  r.set("ok", false);
  r.set("error", std::move(err));
  return response_line(r);
}

}  // namespace cvmt
