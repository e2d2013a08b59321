#include "testgen/fuzz_driver.hpp"

#include <algorithm>
#include <filesystem>
#include <future>
#include <iostream>

#include "sim/session.hpp"
#include "support/args.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"
#include "testgen/generators.hpp"

namespace cvmt {
namespace {

/// Shrinks `failing` against the oracles, with one ArtifactCache scoped
/// to the whole minimization: shrink candidates mutate the scheme and
/// run knobs far more often than the profiles, so most of the hundreds
/// of oracle evaluations reuse the already-built programs instead of
/// rebuilding them from scratch.
ShrinkResult shrink_against_oracles(const FuzzCase& failing) {
  ArtifactCache artifacts;
  return shrink_case(failing, [&artifacts](const FuzzCase& c) {
    return !run_oracles(c, artifacts).ok;
  });
}

void shrink_failures(FuzzSweepResult& sweep) {
  for (FuzzOutcome& o : sweep.outcomes) {
    if (o.report.ok) continue;
    const ShrinkResult s = shrink_against_oracles(o.c);
    o.shrunk = true;
    o.minimized = s.minimized;
    o.minimized_report = run_oracles(o.minimized);
    o.shrink_attempts = s.attempts;
  }
}

void save_outcomes(const FuzzSweepResult& sweep, const FuzzOptions& opt) {
  if (opt.save_dir.empty()) return;
  std::filesystem::create_directories(opt.save_dir);
  for (const FuzzOutcome& o : sweep.outcomes) {
    if (o.report.ok && !opt.save_all) continue;
    const FuzzCase& to_save = o.shrunk ? o.minimized : o.c;
    save_case(opt.save_dir + "/" + to_save.label + ".json", to_save);
  }
}

}  // namespace

Dataset FuzzSweepResult::summary() const {
  Dataset d({ColumnSpec::str("Metric"), ColumnSpec::integer("Value")});
  const auto generated =
      static_cast<std::int64_t>(outcomes.size() - corpus_cases);
  d.add_row({std::string("corpus cases"),
             static_cast<std::int64_t>(corpus_cases)});
  d.add_row({std::string("generated cases"), generated});
  std::int64_t simulations = 0;
  for (const FuzzOutcome& o : outcomes) {
    simulations += o.report.simulations;
    if (o.shrunk) simulations += o.minimized_report.simulations;
  }
  d.add_row({std::string("simulations run"), simulations});
  d.add_row({std::string("failures"),
             static_cast<std::int64_t>(failures)});
  return d;
}

Dataset FuzzSweepResult::failure_table() const {
  Dataset d({ColumnSpec::str("Case"), ColumnSpec::str("Oracle"),
             ColumnSpec::str("Mismatch"), ColumnSpec::str("Shape")});
  for (const FuzzOutcome& o : outcomes) {
    if (o.report.ok) continue;
    const FuzzCase& c = o.shrunk ? o.minimized : o.c;
    const OracleReport& report = o.shrunk ? o.minimized_report : o.report;
    d.add_row({c.label,
               report.construction_error.empty()
                   ? report.failed_oracle
                   : std::string("construction"),
               report.construction_error.empty()
                   ? report.mismatch
                   : report.construction_error,
               c.summary()});
  }
  return d;
}

FuzzSweepResult run_fuzz_sweep(const FuzzOptions& options) {
  FuzzSweepResult sweep;

  // Corpus replays first (sorted by filename), then generated cases in
  // seed order: a stable outcome order for any worker count.
  std::vector<FuzzCase> cases = load_corpus_dir(options.corpus_dir);
  sweep.corpus_cases = cases.size();
  SplitMix64 sm(options.seed);
  for (std::uint64_t i = 0; i < options.cases; ++i)
    cases.push_back(generate_case(sm.next()));

  sweep.outcomes.resize(cases.size());
  const unsigned workers = std::max<unsigned>(
      1, std::min<std::size_t>(options.workers == 0
                                   ? ThreadPool::hardware_workers()
                                   : options.workers,
                               cases.size()));
  const auto run_one = [&](std::size_t i) {
    FuzzOutcome& o = sweep.outcomes[i];
    o.c = std::move(cases[i]);
    o.from_corpus = i < sweep.corpus_cases;
    o.report = run_oracles(o.c);
  };
  if (workers == 1) {
    for (std::size_t i = 0; i < cases.size(); ++i) run_one(i);
  } else {
    ThreadPool pool(workers);
    std::vector<std::future<void>> pending;
    pending.reserve(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i)
      pending.push_back(pool.submit([&run_one, i] { run_one(i); }));
    for (std::future<void>& f : pending) f.get();
  }
  for (const FuzzOutcome& o : sweep.outcomes)
    if (!o.report.ok) ++sweep.failures;

  if (options.shrink) shrink_failures(sweep);
  save_outcomes(sweep, options);
  return sweep;
}

int fuzz_main(int argc, const char* const* argv) {
  ArgParser parser(
      "cvmt fuzz",
      "Property-based differential fuzzing: generates random scheme/"
      "workload/machine cases from a seed, runs every case through the "
      "plan/tree, full/fast-stats, fast-forward/stepped and replay "
      "configurations, and reports any SimResult counter mismatch. "
      "Failures shrink (--shrink) to minimal JSON repros; check them in "
      "under tests/corpus/ to pin the regression forever.");
  parser.add_u64("cases", "n", "Number of generated cases.");
  parser.add_u64("seed", "s", "Sweep seed (case i uses draw i).");
  parser.add_u64("workers", "n",
                 "Worker threads (0 = all hardware cores); outcomes are "
                 "bit-identical for any count.");
  parser.add_flag("shrink", "Minimize failing cases before reporting.");
  parser.add_string("corpus", "dir",
                    "Replay every *.json case in this directory before "
                    "generating new ones.");
  parser.add_string("save", "dir",
                    "Write failing (shrunk, with --shrink) repro JSON "
                    "files here, e.g. tests/corpus.");
  parser.add_flag("save-all",
                  "With --save: persist every case, not just failures "
                  "(corpus seeding).");
  parser.add_string("case", "file",
                    "Replay one repro file instead of sweeping.");
  switch (parser.parse(argc, argv)) {
    case ArgParser::Outcome::kHelp: return 0;
    case ArgParser::Outcome::kError: return 2;
    case ArgParser::Outcome::kOk: break;
  }

  // Single-file replay: the repro loop a failure report points at.
  const std::string one_case = parser.get_string("case", "");
  if (!one_case.empty()) {
    FuzzCase c;
    try {
      c = load_case(one_case);
    } catch (const CheckError& e) {
      std::cerr << "cvmt fuzz: " << e.what() << '\n';
      return 2;
    }
    OracleReport report = run_oracles(c);
    std::cout << c.label << ": " << report.to_string() << '\n'
              << "  " << c.summary() << '\n';
    if (!report.ok && parser.get_flag("shrink")) {
      const ShrinkResult s = shrink_against_oracles(c);
      std::cout << "shrunk (" << s.attempts << " attempts): "
                << s.minimized.summary() << '\n'
                << s.minimized.to_json().dump() << '\n';
    }
    return report.ok ? 0 : 1;
  }

  FuzzOptions options;
  options.cases = parser.get_u64("cases", options.cases);
  options.seed = parser.get_u64("seed", options.seed);
  options.workers =
      static_cast<unsigned>(parser.get_u64("workers", options.workers));
  options.shrink = parser.get_flag("shrink");
  options.corpus_dir = parser.get_string("corpus", "");
  options.save_dir = parser.get_string("save", "");
  options.save_all = parser.get_flag("save-all");
  if (options.save_all && options.save_dir.empty()) {
    std::cerr << "cvmt fuzz: --save-all needs --save=<dir>\n";
    return 2;
  }

  FuzzSweepResult sweep;
  try {
    sweep = run_fuzz_sweep(options);
  } catch (const CheckError& e) {
    // Typically a malformed/hand-edited corpus file; name the cause
    // instead of std::terminate-ing the sweep.
    std::cerr << "cvmt fuzz: " << e.what() << '\n';
    return 2;
  }
  sweep.summary().to_table().print(std::cout);
  if (sweep.failures > 0) {
    std::cout << '\n';
    sweep.failure_table().to_table().print(std::cout);
    if (!options.save_dir.empty())
      std::cout << "\nrepro files written to " << options.save_dir
                << "/ — replay with `cvmt fuzz --case=<file>`\n";
    else
      std::cout << "\nre-run with --shrink --save=tests/corpus to write "
                   "minimal repro files\n";
  }
  return sweep.failures == 0 ? 0 : 1;
}

}  // namespace cvmt
