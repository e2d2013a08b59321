// perfbench_probe: the in-process half of the benchmark's traced run.
//
// It calls each layer's public functions the way the `cvmt` binary does
// and records a span around every call, so run.py can split a workload's
// host time by layer without instrumenting anything under src/. Spans are
// kept in memory and written out as one JSON document at exit; run.py
// computes durations and self times from them.
//
//   perfbench_probe names
//       The 16 paper 4-thread schemes and the Table 1 benchmarks.
//   perfbench_probe cli --workload=fig10-paper|sweep-fast --dir=D --out=F
//       Traced in-process pass over a CLI workload. Writes the rendered
//       experiment JSON to D/exp_output.json (and, for sweep-fast, the
//       merged store replay to D/merge_output.json).
//   perfbench_probe serve-ref --pool=P --reps=R --out=F
//       Reference responses for a file of `run` request lines (one per
//       line), plus in-process SimSession::run and JsonValue timings.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exp/batch_runner.hpp"
#include "exp/driver.hpp"
#include "exp/params.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "sim/batch_engine.hpp"
#include "sim/session.hpp"
#include "store/result_store.hpp"
#include "store/sweep_store.hpp"
#include "support/args.hpp"
#include "support/check.hpp"
#include "trace/benchmark_suite.hpp"

namespace cvmt {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

/// Spans recorded on the calling thread. Each span's parent is the span
/// open when it began; `request` ties the spans of one job together.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, int id) : tracer_(tracer), id_(id) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  [[nodiscard]] Scope span(std::string name, std::int64_t request = -1) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), ns_since(origin_), -1, parent,
                      request});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return Scope(*this, open_.back());
  }

  [[nodiscard]] JsonValue to_json() const {
    JsonValue out = JsonValue::array();
    for (const Span& s : spans_) {
      JsonValue j = JsonValue::object();
      j.set("name", s.name);
      j.set("start_ns", s.start_ns);
      j.set("end_ns", s.end_ns);
      j.set("parent", s.parent);
      j.set("request", s.request);
      out.push_back(std::move(j));
    }
    return out;
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t request;
  };

  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = ns_since(origin_);
    open_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Sums of the exact simulated statistics over a set of runs.
struct SimTotals {
  std::uint64_t runs = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t idle_cycles = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t icache_accesses = 0;
  std::uint64_t icache_hits = 0;
  std::uint64_t dcache_accesses = 0;
  std::uint64_t dcache_hits = 0;
  std::uint64_t icache_stall_cycles = 0;
  std::uint64_t dcache_stall_cycles = 0;

  void add(const SimResult& r) {
    ++runs;
    cycles += r.cycles;
    instructions += r.total_instructions;
    idle_cycles += r.idle_cycles;
    context_switches += r.os.context_switches;
    icache_accesses += r.icache.total;
    icache_hits += r.icache.hits;
    dcache_accesses += r.dcache.total;
    dcache_hits += r.dcache.hits;
    for (const ThreadResult& t : r.threads) {
      icache_stall_cycles += t.stats.icache_stall_cycles;
      dcache_stall_cycles += t.stats.dcache_stall_cycles;
    }
  }

  [[nodiscard]] JsonValue to_json() const {
    JsonValue j = JsonValue::object();
    j.set("runs", runs);
    j.set("cycles", cycles);
    j.set("instructions", instructions);
    j.set("idle_cycles", idle_cycles);
    j.set("context_switches", context_switches);
    j.set("icache_accesses", icache_accesses);
    j.set("icache_hits", icache_hits);
    j.set("dcache_accesses", dcache_accesses);
    j.set("dcache_hits", dcache_hits);
    j.set("icache_stall_cycles", icache_stall_cycles);
    j.set("dcache_stall_cycles", dcache_stall_cycles);
    return j;
  }
};

[[nodiscard]] std::string result_bytes(const SimResult& r) {
  return sim_result_to_json(r).dump(-1);
}

/// Throws unless two result lists are bit-identical, naming the job.
void check_identical(const std::vector<SimResult>& a,
                     const std::vector<SimResult>& b, std::string_view what) {
  CVMT_CHECK_MSG(a.size() == b.size(),
                 std::string(what) + ": result count differs");
  for (std::size_t i = 0; i < a.size(); ++i)
    CVMT_CHECK_MSG(result_bytes(a[i]) == result_bytes(b[i]),
                   std::string(what) + ": job " + std::to_string(i) +
                       " differs");
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  CVMT_CHECK_MSG(out.good(), "cannot write " + path.string());
}

std::uint64_t dir_bytes(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

/// Flag resolution exactly as `cvmt run` does it for `args`.
ExperimentParams resolve_params(const std::vector<const char*>& args) {
  ArgParser parser("perfbench_probe", "");
  ExperimentParams::add_standard_flags(parser);
  std::vector<const char*> argv = {"perfbench_probe"};
  argv.insert(argv.end(), args.begin(), args.end());
  CVMT_CHECK(parser.parse(static_cast<int>(argv.size()), argv.data()) ==
             ArgParser::Outcome::kOk);
  return ExperimentParams::resolve(parser);
}

/// Builds every artifact `jobs` need on `cache` (fresh), one span per
/// ArtifactCache call: programs first, so each workload span measures
/// only the workload binding over already-built programs.
void build_artifacts(Tracer& tracer, ArtifactCache& cache,
                     const std::vector<BatchJob>& jobs) {
  std::set<std::string> programs, schemes, workloads;
  for (const BatchJob& job : jobs) {
    const MachineConfig& machine = job.sim.machine;
    for (const std::string& b : job.benchmarks) {
      if (!programs.insert(b).second) continue;
      const auto scope = tracer.span("trace.program");
      (void)cache.program(std::string_view(b), machine);
    }
    if (schemes.insert(job.scheme.name()).second) {
      const auto scope = tracer.span("core.scheme");
      (void)cache.scheme(job.scheme, machine);
    }
    std::string key;
    for (const std::string& b : job.benchmarks) key += b + ",";
    if (workloads.insert(key).second) {
      const auto scope = tracer.span("trace.workload");
      (void)cache.workload(std::span<const std::string>(job.benchmarks),
                           machine);
    }
  }
}

JsonValue cache_counts(const ArtifactCache& cache) {
  const ArtifactCacheStats s = cache.stats();
  JsonValue j = JsonValue::object();
  j.set("programs_built", s.program_misses);
  j.set("schemes_compiled", s.scheme_misses);
  j.set("workloads_bound", s.workload_misses);
  return j;
}

std::vector<BatchJob> fig10_jobs(const SimConfig& sim) {
  std::vector<BatchJob> jobs;
  for (const Workload& w : table2_workloads())
    for (const Scheme& s : Scheme::paper_schemes_4t())
      jobs.push_back(make_job(s, w, sim));
  return jobs;
}

SimResult run_job(SimSession& session, const BatchJob& job) {
  return session.run(job.scheme, std::span<const std::string>(job.benchmarks),
                     job.sim);
}

int cli_main(const std::string& workload, const std::filesystem::path& dir,
             const std::filesystem::path& out_path) {
  CVMT_CHECK_MSG(workload == "fig10-paper" || workload == "sweep-fast",
                 "unknown CLI workload " + workload);
  const bool sweep = workload == "sweep-fast";
  std::filesystem::create_directories(dir);
  const Experiment* fig10 = ExperimentRegistry::instance().find("fig10");
  CVMT_CHECK(fig10 != nullptr);
  ExperimentParams params =
      sweep ? resolve_params({"--fast"}) : resolve_params({});
  const std::vector<BatchJob> jobs = fig10_jobs(params.cfg.sim);

  Tracer tracer;
  JsonValue out = JsonValue::object();
  out.set("workload", workload);
  out.set("nproc", static_cast<std::uint64_t>(
                       std::max(1u, std::thread::hardware_concurrency())));

  // 1. The command itself, in process: the experiment's run (its cost is
  //    run_batch over the grid at nproc workers, on the process-wide
  //    artifact cache, cold as in a fresh `cvmt` process) and its output.
  {
    ExperimentParams p = params;
    std::unique_ptr<SweepStore> store;
    if (sweep) {
      const auto scope = tracer.span("exp.store_open");
      store = SweepStore::open_shard((dir / "exp_store").string(),
                                     ShardSpec{0, 1},
                                     p.to_manifest_json("fig10", 1));
      p.cfg.batch.store = store.get();
    }
    ExperimentResult result;
    {
      const auto scope = tracer.span("exp.run_batch");
      result = fig10->run(RunContext{p});
    }
    std::ostringstream os;
    {
      const auto scope = tracer.span("exp.print_result");
      print_result(os, *fig10, p, result, OutputFormat::kJson);
    }
    write_file(dir / "exp_output.json", os.str());
  }
  if (sweep) {
    std::ostringstream os;
    {
      const auto scope = tracer.span("store.merge");
      const auto store = SweepStore::open_merge((dir / "exp_store").string());
      std::string id;
      ExperimentParams merged =
          ExperimentParams::from_manifest_json(store->manifest(), &id);
      const Experiment* experiment = ExperimentRegistry::instance().find(id);
      CVMT_CHECK(experiment != nullptr);
      merged.cfg.batch.store = store.get();
      const ExperimentResult result = experiment->run(RunContext{merged});
      print_result(os, *experiment, merged, result, OutputFormat::kJson);
    }
    write_file(dir / "merge_output.json", os.str());
  }

  // 2. Artifact builds on a fresh cache.
  ArtifactCache cache;
  build_artifacts(tracer, cache, jobs);
  out.set("artifacts", cache_counts(cache));

  // 3. Every job on one thread, one span each. On sweep-fast each job goes
  //    through SweepStore::run_point, with the simulation as its child.
  //    Each job also runs untraced (on its own session and store), the
  //    two in alternating order so neither side always runs warm: the
  //    time difference is the tracing overhead, and the results must be
  //    bit-identical.
  const auto open_store = [&](const char* name) {
    return sweep ? SweepStore::open_shard((dir / name).string(),
                                          ShardSpec{0, 1},
                                          params.to_manifest_json("fig10", 1))
                 : nullptr;
  };
  const std::unique_ptr<SweepStore> traced_store = open_store("trace_store");
  const std::unique_ptr<SweepStore> plain_store = open_store("plain_store");
  SimSession traced_session(cache);
  SimSession plain_session(cache);
  std::vector<SimResult> traced, untraced;
  double traced_s = 0, untraced_s = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto request = static_cast<std::int64_t>(i);
    const auto run_traced = [&] {
      const auto t0 = Clock::now();
      const auto compute = [&] {
        const auto scope = tracer.span("sim.run", request);
        return run_job(traced_session, jobs[i]);
      };
      if (traced_store) {
        const auto scope = tracer.span("store.run_point", request);
        traced.push_back(traced_store->run_point(jobs[i], compute));
      } else {
        traced.push_back(compute());
      }
      traced_s += seconds_between(t0, Clock::now());
    };
    const auto run_plain = [&] {
      const auto t0 = Clock::now();
      const auto compute = [&] { return run_job(plain_session, jobs[i]); };
      untraced.push_back(plain_store ? plain_store->run_point(jobs[i], compute)
                                     : compute());
      untraced_s += seconds_between(t0, Clock::now());
    };
    if (i % 2 == 0) {
      run_traced();
      run_plain();
    } else {
      run_plain();
      run_traced();
    }
  }
  check_identical(traced, untraced, "untraced pass");
  SimTotals totals;
  for (const SimResult& r : traced) totals.add(r);
  out.set("sim", totals.to_json());
  JsonValue overhead = JsonValue::object();
  overhead.set("traced_s", traced_s);
  overhead.set("untraced_s", untraced_s);
  out.set("overhead", std::move(overhead));
  if (traced_store) {
    JsonValue j = JsonValue::object();
    j.set("points_appended", traced_store->counters().computed);
    j.set("log_bytes", dir_bytes(dir / "trace_store"));
    out.set("store", std::move(j));
  }

  // 5. sweep-fast only: the same grid through the batch engine, whose
  //    replay and kernels apply under kReplayBudgetCap.
  if (sweep) {
    SimBatch batch(1);
    for (const BatchJob& job : jobs) {
      BatchRunSpec spec;
      spec.scheme = cache.scheme(job.scheme, job.sim.machine);
      const auto wl = cache.workload(
          std::span<const std::string>(job.benchmarks), job.sim.machine);
      spec.shared_programs = {wl, &wl->programs};
      spec.config = job.sim;
      batch.enqueue(std::move(spec));
    }
    std::vector<SimResult> batched;
    {
      const auto scope = tracer.span("sim.batch_run");
      batched = batch.run_all();
    }
    check_identical(traced, batched, "batch engine");
    const SimBatch::KernelStats& k = batch.kernel_stats();
    JsonValue j = JsonValue::object();
    j.set("fused_jobs", k.fused_jobs);
    j.set("structural_jobs", k.structural_jobs);
    j.set("generic_jobs", k.generic_jobs);
    out.set("batch", std::move(j));
  }

  out.set("spans", tracer.to_json());
  write_file(out_path, out.dump(-1) + "\n");
  return 0;
}

std::vector<std::string> read_lines(const std::filesystem::path& path) {
  std::ifstream in(path);
  CVMT_CHECK_MSG(in.good(), "cannot read " + path.string());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

template <typename F>
double median_us(int reps, F&& f) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    f();
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

int serve_ref_main(const std::filesystem::path& pool_path, int reps,
                   const std::filesystem::path& out_path) {
  CVMT_CHECK_MSG(reps >= 1, "--reps must be >= 1");
  const std::vector<std::string> lines = read_lines(pool_path);
  std::vector<Request> requests;
  std::vector<BatchJob> jobs;
  for (const std::string& line : lines) {
    requests.push_back(parse_request(line));
    const Request& req = requests.back();
    CVMT_CHECK_MSG(req.type == RequestType::kRun,
                   "pool lines must be run requests: " + line);
    jobs.push_back({Scheme::parse(req.scheme), req.benchmarks,
                    req.run_config});
  }

  Tracer tracer;
  ArtifactCache cache;
  build_artifacts(tracer, cache, jobs);
  SimSession session(cache);

  // The reference response of each request, as the daemon's worker
  // computes it (execute_request on a SimSession), for id 0.
  JsonValue refs = JsonValue::array();
  std::vector<SimResult> first;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const JsonValue result = execute_request(requests[i], session);
    first.push_back(run_job(session, jobs[i]));
    const JsonValue response = JsonValue::parse(
        ok_response(JsonValue(std::int64_t{0}), result));
    JsonValue ref = JsonValue::object();
    ref.set("response", response_line(response));
    ref.set("instructions", first.back().total_instructions);
    ref.set("parse_us", median_us(reps, [&] {
              (void)JsonValue::parse(lines[i]);
            }));
    ref.set("dump_us", median_us(reps, [&] {
              (void)response_line(response);
            }));
    refs.push_back(std::move(ref));
  }

  // Warm runs, `reps` per request, each traced and untraced in
  // alternating order (see cli_main).
  SimTotals totals;
  std::vector<SimResult> traced, untraced;
  double traced_s = 0, untraced_s = 0;
  for (int r = 0; r < reps; ++r)
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto run_traced = [&] {
        const auto t0 = Clock::now();
        {
          const auto scope =
              tracer.span("sim.run", static_cast<std::int64_t>(i));
          traced.push_back(run_job(session, jobs[i]));
        }
        traced_s += seconds_between(t0, Clock::now());
      };
      const auto run_plain = [&] {
        const auto t0 = Clock::now();
        untraced.push_back(run_job(session, jobs[i]));
        untraced_s += seconds_between(t0, Clock::now());
      };
      if ((i + static_cast<std::size_t>(r)) % 2 == 0) {
        run_traced();
        run_plain();
      } else {
        run_plain();
        run_traced();
      }
    }
  check_identical(traced, untraced, "untraced pass");
  for (std::size_t k = 0; k < traced.size(); ++k) {
    CVMT_CHECK_MSG(result_bytes(traced[k]) ==
                       result_bytes(first[k % first.size()]),
                   "warm rerun differs from the reference run");
    totals.add(traced[k]);
  }

  JsonValue out = JsonValue::object();
  out.set("references", std::move(refs));
  out.set("artifacts", cache_counts(cache));
  out.set("sim", totals.to_json());
  JsonValue overhead = JsonValue::object();
  overhead.set("traced_s", traced_s);
  overhead.set("untraced_s", untraced_s);
  out.set("overhead", std::move(overhead));
  out.set("spans", tracer.to_json());
  write_file(out_path, out.dump(-1) + "\n");
  return 0;
}

int names_main() {
  JsonValue out = JsonValue::object();
  JsonValue schemes = JsonValue::array();
  for (const Scheme& s : Scheme::paper_schemes_4t()) schemes.push_back(s.name());
  JsonValue benchmarks = JsonValue::array();
  for (const BenchmarkProfile& p : table1_profiles())
    benchmarks.push_back(p.name);
  out.set("schemes", std::move(schemes));
  out.set("benchmarks", std::move(benchmarks));
  std::cout << out.dump(-1) << '\n';
  return 0;
}

int probe_main(int argc, const char* const* argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_probe names|cli|serve-ref [flags]\n";
    return 2;
  }
  const std::string_view mode = argv[1];
  if (mode == "names") return names_main();
  ArgParser parser("perfbench_probe", "In-process traced pass.");
  parser.add_string("workload", "name", "CLI workload");
  parser.add_string("dir", "dir", "scratch directory");
  parser.add_string("pool", "file", "request pool, one line each");
  parser.add_u64("reps", "n", "timed repetitions per request");
  parser.add_string("out", "file", "trace output");
  if (parser.parse(argc - 1, argv + 1) != ArgParser::Outcome::kOk) return 2;
  const std::string out = parser.get_string("out", "");
  CVMT_CHECK_MSG(!out.empty(), "--out is required");
  if (mode == "cli")
    return cli_main(parser.get_string("workload", ""),
                    parser.get_string("dir", ""), out);
  if (mode == "serve-ref")
    return serve_ref_main(parser.get_string("pool", ""),
                          static_cast<int>(parser.get_u64("reps", 5)), out);
  std::cerr << "perfbench_probe: unknown mode " << mode << '\n';
  return 2;
}

}  // namespace
}  // namespace cvmt

int main(int argc, char** argv) {
  try {
    return cvmt::probe_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << '\n';
    return 1;
  }
}
