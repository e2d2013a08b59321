#include "serve/protocol.hpp"

#include <algorithm>

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
    case RequestType::kFuzz: return "fuzz";
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

/// Upper bound on one fuzz request: the sweep runs on a single worker
/// slot, and admission control reasons about request granularity — a
/// giant sweep belongs in `cvmt fuzz`, not a daemon request.
constexpr std::uint64_t kMaxFuzzCases = 10'000;

[[noreturn]] void bad(const JsonValue& id, const std::string& message) {
  throw RequestError(ServeError::kBadRequest, message, id);
}

std::uint64_t get_u64_field(const JsonValue& id, const JsonValue& obj,
                            std::string_view key, std::uint64_t fallback,
                            std::uint64_t min = 0) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->kind() != JsonValue::Kind::kInt || v->as_int() < 0)
    bad(id, "field \"" + std::string(key) +
                "\" must be a non-negative integer");
  const auto u = static_cast<std::uint64_t>(v->as_int());
  if (u < min)
    bad(id, "field \"" + std::string(key) + "\" must be >= " +
                std::to_string(min));
  return u;
}

std::string get_string_field(const JsonValue& id, const JsonValue& obj,
                             std::string_view key,
                             std::string fallback = {}) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->kind() != JsonValue::Kind::kString)
    bad(id, "field \"" + std::string(key) + "\" must be a string");
  return v->as_string();
}

bool get_bool_field(const JsonValue& id, const JsonValue& obj,
                    std::string_view key, bool fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (v->kind() != JsonValue::Kind::kBool)
    bad(id, "field \"" + std::string(key) + "\" must be a boolean");
  return v->as_bool();
}

std::vector<std::string> get_string_array(const JsonValue& id,
                                          const JsonValue& obj,
                                          std::string_view key) {
  std::vector<std::string> out;
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return out;
  if (v->kind() != JsonValue::Kind::kArray)
    bad(id, "field \"" + std::string(key) + "\" must be an array");
  for (std::size_t i = 0; i < v->size(); ++i) {
    if (v->at(i).kind() != JsonValue::Kind::kString)
      bad(id, "field \"" + std::string(key) +
                  "\" must be an array of strings");
    out.push_back(v->at(i).as_string());
  }
  return out;
}

void reject_unknown_keys(const JsonValue& id, const JsonValue& obj,
                         std::string_view where,
                         std::initializer_list<std::string_view> known) {
  for (const auto& member : obj.members()) {
    if (std::find(known.begin(), known.end(), member.first) == known.end())
      bad(id, "unknown field \"" + excerpt(member.first) + "\" in " +
                  std::string(where));
  }
}

/// Applies the shared simulation knobs (budget/timeslice/stats/machine)
/// of a params or config object onto `sim`. Resolution is defaults +
/// request only (never the daemon's own flags); the layering mirrors
/// ExperimentParams::resolve so an experiment request reproduces the
/// bytes of the equivalent `cvmt run` invocation.
void apply_sim_fields(const JsonValue& id, const JsonValue& obj,
                      SimConfig& sim, std::string* machine_spec) {
  if (get_bool_field(id, obj, "fast", false)) {
    sim.instruction_budget = kFastInstructionBudget;
    sim.timeslice_cycles = kFastTimesliceCycles;
  }
  sim.instruction_budget =
      get_u64_field(id, obj, "budget", sim.instruction_budget, 1);
  sim.timeslice_cycles =
      get_u64_field(id, obj, "timeslice", sim.timeslice_cycles, 1);

  const std::string stats = get_string_field(id, obj, "stats");
  if (stats == "full") {
    sim.stats = StatsLevel::kFull;
  } else if (stats == "fast" || stats.empty()) {
    sim.stats = StatsLevel::kFast;
  } else {
    bad(id, "field \"stats\" must be \"full\" or \"fast\"");
  }

  const std::string machine = get_string_field(id, obj, "machine");
  const std::uint64_t clusters = get_u64_field(id, obj, "clusters", 0);
  const std::uint64_t issue = get_u64_field(id, obj, "issue", 0);
  if (!machine.empty()) {
    if (clusters != 0 || issue != 0)
      bad(id, "\"machine\" conflicts with \"clusters\"/\"issue\"");
    try {
      const MachineDescription md = resolve_machine(machine);
      sim.machine = md.machine;
      sim.mem = md.mem;
      sim.switch_policy = md.switch_policy;
    } catch (const CheckError& e) {
      bad(id, e.what());
    }
    if (machine_spec != nullptr) *machine_spec = machine;
  } else if (clusters != 0 || issue != 0) {
    try {
      sim.machine = MachineConfig::clustered(
          static_cast<int>(clusters ? clusters : 4),
          static_cast<int>(issue ? issue : 4));
    } catch (const CheckError& e) {
      bad(id, e.what());
    }
  }
}

ExperimentParams params_from_json(const JsonValue& id,
                                  const JsonValue& obj) {
  reject_unknown_keys(id, obj, "\"params\"",
                      {"fast", "budget", "timeslice", "stats", "machine",
                       "clusters", "issue", "schemes", "workloads",
                       "workers"});
  ExperimentParams p;
  p.fast = get_bool_field(id, obj, "fast", false);
  apply_sim_fields(id, obj, p.cfg.sim, &p.machine_spec);

  // Inner fan-out defaults to 1: the daemon's parallelism is the worker
  // pool, and every worker spawning its own full-width batch pool would
  // thrash the machine. Requests may override (0 = all cores) when the
  // server is known to be otherwise idle.
  p.cfg.batch.workers = static_cast<unsigned>(std::min<std::uint64_t>(
      get_u64_field(id, obj, "workers", 1), 1024));

  p.schemes = get_string_array(id, obj, "schemes");
  for (const std::string& s : p.schemes) {
    try {
      (void)Scheme::parse(s);
    } catch (const CheckError& e) {
      bad(id, "bad scheme \"" + excerpt(s) + "\": " + e.what());
    }
  }
  p.workloads = get_string_array(id, obj, "workloads");
  for (const std::string& w : p.workloads) {
    bool known = false;
    for (const Workload& t2 : table2_workloads())
      known = known || t2.ilp_combo == w;
    if (!known)
      bad(id, "unknown workload \"" + excerpt(w) +
                  "\" (expected a Table 2 ILP combo such as LLHH)");
  }
  return p;
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

  const JsonValue* type = doc.find("type");
  if (type == nullptr || type->kind() != JsonValue::Kind::kString)
    bad(req.id, "request needs a string \"type\" field");
  const std::string& t = type->as_string();

  if (t == "ping" || t == "stats" || t == "shutdown") {
    reject_unknown_keys(req.id, doc, "request", {"id", "type"});
    req.type = t == "ping"     ? RequestType::kPing
               : t == "stats"  ? RequestType::kStats
                               : RequestType::kShutdown;
    return req;
  }

  if (t == "experiment") {
    reject_unknown_keys(req.id, doc, "request",
                        {"id", "type", "experiment", "params"});
    req.type = RequestType::kExperiment;
    req.experiment = get_string_field(req.id, doc, "experiment");
    if (req.experiment.empty())
      bad(req.id, "experiment request needs an \"experiment\" id");
    if (const JsonValue* params = doc.find("params")) {
      if (params->kind() != JsonValue::Kind::kObject)
        bad(req.id, "field \"params\" must be an object");
      req.params = params_from_json(req.id, *params);
    } else {
      req.params = params_from_json(req.id, JsonValue::object());
    }
    return req;
  }

  if (t == "run") {
    reject_unknown_keys(req.id, doc, "request",
                        {"id", "type", "scheme", "benchmarks", "config"});
    req.type = RequestType::kRun;
    req.scheme = get_string_field(req.id, doc, "scheme");
    if (req.scheme.empty())
      bad(req.id, "run request needs a \"scheme\"");
    try {
      (void)Scheme::parse(req.scheme);
    } catch (const CheckError& e) {
      bad(req.id,
          "bad scheme \"" + excerpt(req.scheme) + "\": " + e.what());
    }
    req.benchmarks = get_string_array(req.id, doc, "benchmarks");
    if (req.benchmarks.empty())
      bad(req.id, "run request needs a non-empty \"benchmarks\" array");
    for (const std::string& b : req.benchmarks) {
      try {
        (void)profile_by_name(b);
      } catch (const CheckError&) {
        bad(req.id, "unknown benchmark \"" + excerpt(b) + "\"");
      }
    }
    // The serve default matches the experiment layer's sweeps (kFast),
    // not the bare-library default (kFull); "stats":"full" opts in.
    req.run_config.stats = StatsLevel::kFast;
    if (const JsonValue* config = doc.find("config")) {
      if (config->kind() != JsonValue::Kind::kObject)
        bad(req.id, "field \"config\" must be an object");
      reject_unknown_keys(req.id, *config, "\"config\"",
                          {"fast", "budget", "timeslice", "stats",
                           "machine", "clusters", "issue"});
      apply_sim_fields(req.id, *config, req.run_config, nullptr);
    }
    return req;
  }

  if (t == "fuzz") {
    reject_unknown_keys(req.id, doc, "request",
                        {"id", "type", "cases", "seed"});
    req.type = RequestType::kFuzz;
    req.fuzz_cases = get_u64_field(req.id, doc, "cases", 20, 1);
    if (req.fuzz_cases > kMaxFuzzCases)
      bad(req.id, "field \"cases\" must be <= " +
                      std::to_string(kMaxFuzzCases) +
                      " per request (use `cvmt fuzz` for deep sweeps)");
    req.fuzz_seed = get_u64_field(req.id, doc, "seed", 1);
    return req;
  }

  throw RequestError(ServeError::kUnknownType,
                     "unknown request type \"" + excerpt(t) + "\"", req.id);
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
