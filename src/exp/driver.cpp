#include "exp/driver.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <ostream>
#include <sstream>

#include "isa/machine_file.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/sweep_store.hpp"
#include "support/check.hpp"
#include "support/table.hpp"
#include "support/version.hpp"
#include "testgen/fuzz_driver.hpp"

namespace cvmt {

std::string_view to_string(OutputFormat f) {
  switch (f) {
    case OutputFormat::kTable: return "table";
    case OutputFormat::kCsv: return "csv";
    case OutputFormat::kJson: return "json";
  }
  return "?";
}

namespace {

OutputFormat format_from_string(std::string_view s) {
  if (s == "table") return OutputFormat::kTable;
  if (s == "csv") return OutputFormat::kCsv;
  if (s == "json") return OutputFormat::kJson;
  CVMT_CHECK_MSG(false, "unknown output format: " + std::string(s));
  __builtin_unreachable();
}

void print_table_format(std::ostream& os, const ExperimentResult& result) {
  for (const ResultSection& s : result.sections) {
    if (!s.title.empty()) print_banner(os, s.title);
    os << s.preamble;
    if (!s.text_only && s.data.num_cols() > 0) s.data.to_table().print(os);
    os << s.note;
  }
}

void print_csv_format(std::ostream& os, const Experiment& experiment,
                      const ExperimentResult& result) {
  os << "# experiment: " << experiment.id << '\n';
  bool first = true;
  for (const ResultSection& s : result.sections) {
    if (s.data.num_cols() == 0) continue;
    if (!first) os << '\n';
    first = false;
    if (!s.title.empty()) os << "# section: " << s.title << '\n';
    s.data.write_csv(os);
  }
}

JsonValue params_to_json(const Experiment& experiment,
                         const ExperimentParams& params) {
  JsonValue out = JsonValue::object();
  if (experiment.in_schema(ParamKind::kBudget))
    out.set("budget", params.cfg.sim.instruction_budget);
  if (experiment.in_schema(ParamKind::kTimeslice))
    out.set("timeslice", params.cfg.sim.timeslice_cycles);
  if (experiment.in_schema(ParamKind::kStats) ||
      experiment.forces_full_stats) {
    const bool full = experiment.forces_full_stats ||
                      params.cfg.sim.stats == StatsLevel::kFull;
    out.set("stats", full ? "full" : "fast");
    if (experiment.forces_full_stats) out.set("stats_forced", true);
  }
  if (experiment.in_schema(ParamKind::kSchemes)) {
    JsonValue arr = JsonValue::array();
    for (const std::string& s : params.schemes) arr.push_back(s);
    out.set("schemes", std::move(arr));
  }
  if (experiment.in_schema(ParamKind::kWorkloads)) {
    JsonValue arr = JsonValue::array();
    for (const std::string& w : params.workloads) arr.push_back(w);
    out.set("workloads", std::move(arr));
  }
  if (experiment.in_schema(ParamKind::kMachine)) {
    JsonValue machine = JsonValue::object();
    machine.set("clusters", params.cfg.sim.machine.num_clusters);
    machine.set("issue_per_cluster",
                params.cfg.sim.machine.max_issue_per_cluster());
    // The spec (and the het marker) appear only for --machine runs:
    // default runs keep the exact historical bytes.
    if (!params.machine_spec.empty())
      machine.set("spec", params.machine_spec);
    if (!params.cfg.sim.machine.uniform())
      machine.set("heterogeneous", true);
    out.set("machine", std::move(machine));
  }
  // ParamKind::kWorkers is intentionally absent: the worker count is an
  // execution detail and results are bit-identical for any value, so the
  // machine-readable output must not depend on it.
  return out;
}

}  // namespace

JsonValue section_to_json(const ResultSection& s) {
  JsonValue section = JsonValue::object();
  section.reserve(3);
  if (!s.title.empty()) section.set("title", s.title);
  s.data.add_json_members(section);
  return section;
}

JsonValue result_to_json(const Experiment& experiment,
                         const ExperimentParams& params,
                         const ExperimentResult& result) {
  JsonValue out = JsonValue::object();
  out.reserve(6);
  out.set("id", experiment.id);
  out.set("artifact", experiment.artifact);
  out.set("description", experiment.description);
  // A failing run throws, so every result here succeeded; the field stays
  // in the format its readers parse.
  out.set("ok", true);
  out.set("params", params_to_json(experiment, params));
  JsonValue sections = JsonValue::array();
  sections.reserve(result.sections.size());
  for (const ResultSection& s : result.sections)
    if (s.data.num_cols() > 0) sections.push_back(section_to_json(s));
  out.set("sections", std::move(sections));
  return out;
}

void print_result(std::ostream& os, const Experiment& experiment,
                  const ExperimentParams& params,
                  const ExperimentResult& result, OutputFormat format) {
  switch (format) {
    case OutputFormat::kTable: print_table_format(os, result); return;
    case OutputFormat::kCsv:
      print_csv_format(os, experiment, result);
      return;
    case OutputFormat::kJson:
      result_to_json(experiment, params, result).write(os);
      os << '\n';
      return;
  }
}

std::string run_to_string(const Experiment& experiment,
                          const ExperimentParams& params,
                          OutputFormat format) {
  const ExperimentResult result = experiment.run(RunContext{params});
  std::ostringstream os;
  print_result(os, experiment, params, result, format);
  return os.str();
}

namespace {

ParamKind param_kind_of_flag(std::string_view flag) {
  if (flag == "fast" || flag == "budget") return ParamKind::kBudget;
  if (flag == "timeslice") return ParamKind::kTimeslice;
  if (flag == "workers") return ParamKind::kWorkers;
  if (flag == "stats") return ParamKind::kStats;
  if (flag == "schemes") return ParamKind::kSchemes;
  if (flag == "workloads") return ParamKind::kWorkloads;
  CVMT_CHECK(flag == "clusters" || flag == "issue" || flag == "machine");
  return ParamKind::kMachine;
}

void warn_flags_outside_schema(const Experiment& experiment,
                               const ArgParser& parser) {
  for (const std::string& flag : parser.cli_set_names()) {
    // format/out/store/shard are driver-level, not experiment schema.
    if (flag == "format" || flag == "out" || flag == "store" ||
        flag == "shard")
      continue;
    if (!experiment.in_schema(param_kind_of_flag(flag)))
      std::fprintf(stderr,
                   "cvmt: experiment '%s' does not consume --%s "
                   "(schema: %s)\n",
                   experiment.id.c_str(), flag.c_str(),
                   experiment.schema_summary().c_str());
  }
}

void add_format_flag(ArgParser& parser) {
  parser.add_string("format", "fmt",
                    "Output format: aligned table, machine-readable CSV, "
                    "or JSON.",
                    {"table", "csv", "json"});
}

void add_out_flag(ArgParser& parser) {
  parser.add_string("out", "file",
                    "Write the report to this file instead of stdout "
                    "(same bytes; diagnostics stay on stderr).");
}

/// The --out contract: a pre-existing report at the path must survive any
/// failure — a typo'd experiment id, an experiment throwing mid-run, a
/// full disk. So the report is rendered into `buffer` and committed to
/// the file only at the end (commit_out); this probe merely verifies the
/// path is writable up front, in append mode, which never truncates.
/// Returns false (after a diagnostic) when the path cannot be opened.
bool probe_out(const std::string& path, std::string_view who) {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  bool ok;
  {
    std::ofstream probe(path, std::ios::out | std::ios::app);
    ok = probe.is_open();
  }
  // The probe creates the file when it did not exist; remove it again so
  // a run that later throws leaves the filesystem exactly as it found it
  // (no stray zero-byte report for a consumer to mistake for output).
  if (ok && !existed) std::filesystem::remove(path, ec);
  if (!ok) std::cerr << who << ": cannot open --out file: " << path << '\n';
  return ok;
}

/// Writes the buffered report to `path` (binary: exactly the bytes the
/// stdout path would carry). Writes a sibling temp file first and renames
/// it over the target only after a successful flush — a full disk or I/O
/// error mid-write must not destroy the previous report (rename is atomic
/// on POSIX). Returns false after a diagnostic on error.
bool commit_out(const std::string& path, const std::ostringstream& buffer,
                std::string_view who) {
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  {
    std::ofstream file(tmp,
                       std::ios::out | std::ios::trunc | std::ios::binary);
    file << buffer.str();
    file.flush();
    if (!file.good()) {
      std::filesystem::remove(tmp, ec);
      std::cerr << who << ": error writing --out file: " << path << '\n';
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (!ec) return true;
  std::filesystem::remove(tmp, ec);
  std::cerr << who << ": error writing --out file: " << path << '\n';
  return false;
}

/// Runs one experiment end to end and prints its result.
void run_and_print(const Experiment& experiment,
                   const ExperimentParams& params, OutputFormat format,
                   std::ostream& os) {
  print_result(os, experiment, params, experiment.run(RunContext{params}),
               format);
}

void print_dataset(std::ostream& os, const Dataset& d,
                   OutputFormat format) {
  switch (format) {
    case OutputFormat::kTable: d.to_table().print(os); break;
    case OutputFormat::kCsv: d.write_csv(os); break;
    case OutputFormat::kJson:
      d.to_json().write(os);
      os << '\n';
      break;
  }
}

/// What a sharded run prints instead of the experiment result: the shard
/// cannot render derived sections (they fold over other shards' points),
/// so it reports what it contributed to the store.
void print_shard_summary(std::ostream& os, const Experiment& experiment,
                         const ExperimentParams& params,
                         const SweepStore& store, OutputFormat format) {
  const SweepStore::Counters c = store.counters();
  Dataset d({ColumnSpec::str("Metric"), ColumnSpec::str("Value")});
  d.add_row({"experiment", experiment.id});
  d.add_row({"store", store.dir()});
  d.add_row({"shard", std::to_string(params.shard_index) + "/" +
                          std::to_string(params.shard_count)});
  d.add_row({"grid_points", std::to_string(c.total)});
  d.add_row({"computed", std::to_string(c.computed)});
  d.add_row({"resumed", std::to_string(c.resumed)});
  d.add_row({"skipped_other_shards", std::to_string(c.skipped)});
  d.add_row({"store_points",
             std::to_string(store.loaded_points() + c.computed)});
  print_dataset(os, d, format);
}

/// run_and_print with the --store sweep semantics layered on top (see
/// DESIGN.md §12). Opens the store, plants it in the batch options, and:
///   n == 1: a resumable run — the store sees the whole grid, so the
///           normal experiment output prints (and reruns are served from
///           the logs without simulating).
///   n  > 1: a shard — grid points land in the shard's log as computed;
///           derived sections (speedups, averages) would fold over other
///           shards' absent points, so a CheckError out of the run is
///           expected on a partial grid: it is reported as a note and the
///           shard summary prints instead. A failure inside a simulation
///           itself (counters.failed > 0) stays a hard error.
int run_with_optional_store(const Experiment& experiment,
                            ExperimentParams& params, OutputFormat format,
                            std::ostream& os) {
  if (params.store_dir.empty()) {
    run_and_print(experiment, params, format, os);
    return 0;
  }
  std::unique_ptr<SweepStore> store;
  try {
    store = SweepStore::open_shard(
        params.store_dir,
        ShardSpec{params.shard_index, params.shard_count},
        params.to_manifest_json(experiment.id, params.shard_count));
  } catch (const CheckError& e) {
    std::cerr << "cvmt run: " << e.what() << '\n';
    return 2;
  }
  params.cfg.batch.store = store.get();
  if (params.shard_count == 1) {
    run_and_print(experiment, params, format, os);
    return 0;
  }
  try {
    (void)experiment.run(RunContext{params});
  } catch (const CheckError& e) {
    if (store->counters().failed > 0) {
      std::cerr << "cvmt run: " << e.what() << '\n';
      return 1;
    }
    std::cerr << "cvmt run: note: derived sections skipped on this "
                 "partial grid (expected under --shard; `cvmt merge` "
                 "renders them): "
              << e.what() << '\n';
  }
  print_shard_summary(os, experiment, params, *store, format);
  return 0;
}

int usage(std::ostream& os, int code) {
  os << "usage:\n"
        "  cvmt list [--format=table|csv|json]\n"
        "      List every registered experiment with its paper artifact\n"
        "      and declared parameter schema.\n"
        "  cvmt run <id|all> [--flags] [--format=table|csv|json]\n"
        "           [--out=FILE] [--store=DIR [--shard=k/n]]\n"
        "      Run one experiment (or every one) and print its result\n"
        "      (--out writes the same bytes to FILE instead of stdout).\n"
        "      With --store, completed grid points persist to crash-safe\n"
        "      shard logs in DIR and are never recomputed (resume =\n"
        "      rerun); --shard=k/n computes only shard k's partition.\n"
        "      `cvmt run <id> --help` lists the flags.\n"
        "  cvmt merge --store=DIR [--format=...] [--out=FILE]\n"
        "      Fold the shard logs of a --store sweep into the full\n"
        "      experiment result — byte-identical to the unsharded run.\n"
        "      Errors with the exact resume command if a point is\n"
        "      missing. See DESIGN.md §12.\n"
        "  cvmt machines [FILE.machine ...]\n"
        "      List the built-in machine descriptions; with file\n"
        "      arguments, parse and validate each .machine file (exit 1\n"
        "      on the first invalid file).\n"
        "  cvmt fuzz [--cases=N] [--seed=S] [--shrink] [--flags]\n"
        "      Property-based differential fuzzing of the simulator's\n"
        "      bit-identity contracts; `cvmt fuzz --help` for details.\n"
        "  cvmt serve [--port=N] [--workers=K] [--queue=N]\n"
        "      Long-lived experiment daemon: line-delimited JSON over\n"
        "      TCP, warm artifact cache, bounded worker pool; SIGTERM\n"
        "      drains gracefully. See DESIGN.md §11.\n"
        "  cvmt client --port=N <--ping|--stats|--shutdown|...>\n"
        "      Scripted client and load generator for `cvmt serve`;\n"
        "      `cvmt client --help` for the actions.\n"
        "  cvmt version\n"
        "      Print the build's git revision, compiler and build type.\n";
  return code;
}

/// `cvmt machines`: lists built-ins; `cvmt machines FILE...` validates
/// machine files with parse/validate diagnostics (non-zero exit on error).
int cvmt_machines(int argc, const char* const* argv) {
  if (argc >= 2 && (std::string_view(argv[1]) == "--help" ||
                    std::string_view(argv[1]) == "-h")) {
    std::cout << "usage: cvmt machines [FILE.machine ...]\n"
                 "  Without arguments: list every built-in machine\n"
                 "  description (usable as --machine=NAME).\n"
                 "  With arguments: parse and validate each .machine\n"
                 "  file; prints the diagnostic and exits 1 on the first\n"
                 "  invalid file.\n";
    return 0;
  }
  if (argc < 2) {
    Dataset d({ColumnSpec::str("Name"), ColumnSpec::str("Clusters"),
               ColumnSpec::str("Memory"), ColumnSpec::str("Policy")});
    for (const std::string& name : builtin_machine_names()) {
      MachineDescription desc;
      CVMT_CHECK(find_builtin_machine(name, desc));
      std::string shape = desc.machine.shape_label();
      if (!desc.machine.uniform()) shape += " (het)";
      std::string mem = desc.mem.has_l2 ? "L1+L2" : "L1";
      if (desc.mem.dcache_banks > 1)
        mem += ", " + std::to_string(desc.mem.dcache_banks) + "-bank D$";
      d.add_row({name, shape, mem, to_string(desc.switch_policy)});
    }
    d.to_table().print(std::cout);
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    try {
      const MachineDescription desc = load_machine_file(argv[i]);
      std::cout << argv[i] << ": ok (machine '" << desc.name << "')\n";
    } catch (const CheckError& e) {
      std::cerr << "cvmt machines: " << argv[i] << ": " << e.what()
                << '\n';
      return 1;
    }
  }
  return 0;
}

Dataset list_dataset() {
  Dataset d({ColumnSpec::str("Id"), ColumnSpec::str("Artifact"),
             ColumnSpec::str("Params"), ColumnSpec::str("Description")});
  for (const Experiment* e : ExperimentRegistry::instance().all())
    d.add_row({e->id, e->artifact, e->schema_summary(), e->description});
  return d;
}

int cvmt_list(int argc, const char* const* argv) {
  ArgParser parser("cvmt list", "Lists every registered experiment.");
  add_format_flag(parser);
  switch (parser.parse(argc, argv)) {
    case ArgParser::Outcome::kHelp: return 0;
    case ArgParser::Outcome::kError: return 2;
    case ArgParser::Outcome::kOk: break;
  }
  const OutputFormat format =
      format_from_string(parser.get_string("format", "table"));
  print_dataset(std::cout, list_dataset(), format);
  return 0;
}

int cvmt_run(int argc, const char* const* argv) {
  ArgParser parser("cvmt run <id|all>", "Runs experiments from the registry.");
  ExperimentParams::add_standard_flags(parser);
  add_format_flag(parser);
  add_out_flag(parser);

  // `cvmt run --help` (no id) should reach the parser's help, not be
  // taken for an experiment id.
  if (argc < 2 || std::string_view(argv[1]).substr(0, 2) == "--") {
    if (argc >= 2 && std::string_view(argv[1]) == "--help") {
      parser.print_help(std::cout);
      return 0;
    }
    std::cerr << "cvmt run: missing experiment id (try `cvmt list` or "
                 "`cvmt run --help`)\n";
    return 2;
  }
  const std::string_view id = argv[1];

  // Shift off the id so only flags remain.
  std::vector<const char*> rest;
  rest.push_back(argv[0]);
  for (int i = 2; i < argc; ++i) rest.push_back(argv[i]);
  switch (parser.parse(static_cast<int>(rest.size()), rest.data())) {
    case ArgParser::Outcome::kHelp: return 0;
    case ArgParser::Outcome::kError: return 2;
    case ArgParser::Outcome::kOk: break;
  }

  ExperimentParams params;
  try {
    params = ExperimentParams::resolve(parser);
  } catch (const CheckError& e) {
    std::cerr << "cvmt run: " << e.what() << '\n';
    return 2;
  }
  const OutputFormat format =
      format_from_string(parser.get_string("format", "table"));

  const Experiment* experiment = nullptr;
  if (id != "all") {
    experiment = ExperimentRegistry::instance().find(id);
    if (experiment == nullptr) {
      std::cerr << "cvmt run: unknown experiment '" << id
                << "' (try `cvmt list`)\n";
      return 2;
    }
  } else if (!params.store_dir.empty()) {
    // A store directory binds one experiment (one manifest, one grid).
    std::cerr << "cvmt run: --store needs a single experiment id, not "
                 "'all' (one store directory per experiment)\n";
    return 2;
  }
  const std::string out_path = parser.get_string("out", "");
  if (!out_path.empty() && !probe_out(out_path, "cvmt run")) return 2;
  std::ostringstream buffer;
  std::ostream& os =
      out_path.empty() ? static_cast<std::ostream&>(std::cout) : buffer;

  int code = 0;
  if (id == "all") {
    const auto all = ExperimentRegistry::instance().all();
    if (format == OutputFormat::kJson) {
      JsonValue out = JsonValue::object();
      out.set("generator", "cvmt");
      JsonValue results = JsonValue::array();
      for (const Experiment* e : all) {
        results.push_back(
            result_to_json(*e, params, e->run(RunContext{params})));
      }
      out.set("results", std::move(results));
      out.write(os);
      os << '\n';
    } else {
      bool first = true;
      for (const Experiment* e : all) {
        if (!first && format == OutputFormat::kCsv) os << '\n';
        first = false;
        print_result(os, *e, params, e->run(RunContext{params}), format);
      }
    }
  } else {
    warn_flags_outside_schema(*experiment, parser);
    code = run_with_optional_store(*experiment, params, format, os);
  }
  if (!out_path.empty() && !commit_out(out_path, buffer, "cvmt run"))
    return 1;
  return code;
}

/// `cvmt merge --store=DIR`: replays the stored sweep. The experiment id
/// and every sweep-defining parameter come from the manifest alone, not
/// from flags, so the fold is reproducible from the directory by itself.
int cvmt_merge(int argc, const char* const* argv) {
  ArgParser parser(
      "cvmt merge",
      "Folds the shard logs of a --store sweep into the full experiment "
      "result; table/CSV/JSON bytes are identical to the unsharded run.");
  parser.add_string("store", "dir",
                    "The store directory the shard runs wrote.");
  add_format_flag(parser);
  add_out_flag(parser);
  switch (parser.parse(argc, argv)) {
    case ArgParser::Outcome::kHelp: return 0;
    case ArgParser::Outcome::kError: return 2;
    case ArgParser::Outcome::kOk: break;
  }
  const std::string dir = parser.get_string("store", "");
  if (dir.empty()) {
    std::cerr << "cvmt merge: --store=DIR is required (try `cvmt merge "
                 "--help`)\n";
    return 2;
  }

  std::unique_ptr<SweepStore> store;
  std::string id;
  ExperimentParams params;
  try {
    store = SweepStore::open_merge(dir);
    params = ExperimentParams::from_manifest_json(store->manifest(), &id);
  } catch (const CheckError& e) {
    std::cerr << "cvmt merge: " << e.what() << '\n';
    return 2;
  }
  const Experiment* experiment = ExperimentRegistry::instance().find(id);
  if (experiment == nullptr) {
    std::cerr << "cvmt merge: manifest names unknown experiment '" << id
              << "'\n";
    return 2;
  }
  params.cfg.batch.store = store.get();

  const OutputFormat format =
      format_from_string(parser.get_string("format", "table"));
  const std::string out_path = parser.get_string("out", "");
  if (!out_path.empty() && !probe_out(out_path, "cvmt merge")) return 2;
  std::ostringstream buffer;
  std::ostream& os =
      out_path.empty() ? static_cast<std::ostream&>(std::cout) : buffer;
  try {
    run_and_print(*experiment, params, format, os);
  } catch (const CheckError& e) {
    // The expected operational failure: a shard has not finished. The
    // message names the exact resume command.
    std::cerr << "cvmt merge: " << e.what() << '\n';
    return 1;
  }
  if (!out_path.empty() && !commit_out(out_path, buffer, "cvmt merge"))
    return 1;
  return 0;
}

}  // namespace

int cvmt_main(int argc, const char* const* argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string_view command = argv[1];
  if (command == "list") return cvmt_list(argc - 1, argv + 1);
  if (command == "run") return cvmt_run(argc - 1, argv + 1);
  if (command == "merge") return cvmt_merge(argc - 1, argv + 1);
  if (command == "machines") return cvmt_machines(argc - 1, argv + 1);
  if (command == "fuzz") return fuzz_main(argc - 1, argv + 1);
  if (command == "serve") return serve_main(argc - 1, argv + 1);
  if (command == "client") return client_main(argc - 1, argv + 1);
  if (command == "version" || command == "--version") {
    std::cout << version_string() << '\n';
    return 0;
  }
  if (command == "help" || command == "--help" || command == "-h")
    return usage(std::cout, 0);
  std::cerr << "cvmt: unknown command '" << command << "'\n";
  return usage(std::cerr, 2);
}

}  // namespace cvmt
