#include "serve/router.hpp"

#include "exp/driver.hpp"
#include "support/check.hpp"

namespace cvmt {
namespace {

JsonValue run_experiment(const Request& req) {
  const Experiment* experiment =
      ExperimentRegistry::instance().find(req.experiment);
  if (experiment == nullptr)
    throw RequestError(ServeError::kUnknownExperiment,
                       "unknown experiment \"" + req.experiment +
                           "\" (see `cvmt list`)",
                       req.id);
  const ExperimentResult result = experiment->run(RunContext{req.params});
  return result_to_json(*experiment, req.params, result);
}

JsonValue run_single(const Request& req, SimSession& session) {
  const Scheme scheme = Scheme::parse(req.scheme);
  const SimResult r = session.run(
      scheme, std::span<const std::string>(req.benchmarks),
      req.run_config);

  ResultSection summary;
  summary.title = "result";
  summary.data = Dataset(
      {ColumnSpec::str("Scheme"), ColumnSpec::integer("Cycles"),
       ColumnSpec::integer("Instructions"), ColumnSpec::integer("Ops"),
       ColumnSpec::integer("Idle cycles"), ColumnSpec::real("IPC", 4),
       ColumnSpec::real("I$ hit", 4), ColumnSpec::real("D$ hit", 4)});
  summary.data.add_row({r.scheme, static_cast<std::int64_t>(r.cycles),
                        static_cast<std::int64_t>(r.total_instructions),
                        static_cast<std::int64_t>(r.total_ops),
                        static_cast<std::int64_t>(r.idle_cycles), r.ipc,
                        r.icache.rate(), r.dcache.rate()});

  ResultSection threads;
  threads.title = "threads";
  threads.data = Dataset({ColumnSpec::integer("Thread"),
                          ColumnSpec::str("Benchmark"),
                          ColumnSpec::integer("Instructions"),
                          ColumnSpec::integer("Ops")});
  for (std::size_t i = 0; i < r.threads.size(); ++i)
    threads.data.add_row(
        {static_cast<std::int64_t>(i), r.threads[i].benchmark,
         static_cast<std::int64_t>(r.threads[i].stats.instructions),
         static_cast<std::int64_t>(r.threads[i].stats.ops)});

  JsonValue out = JsonValue::object();
  out.reserve(2);
  out.set("scheme", r.scheme);
  JsonValue sections = JsonValue::array();
  sections.reserve(2);
  sections.push_back(section_to_json(summary));
  sections.push_back(section_to_json(threads));
  out.set("sections", std::move(sections));
  return out;
}

}  // namespace

JsonValue execute_request(const Request& req, SimSession& session) {
  switch (req.type) {
    case RequestType::kExperiment: return run_experiment(req);
    case RequestType::kRun: return run_single(req, session);
    case RequestType::kStats:
    case RequestType::kPing:
    case RequestType::kShutdown: break;
  }
  CVMT_CHECK_MSG(false, "inline request type reached the worker pool");
  __builtin_unreachable();
}

}  // namespace cvmt
