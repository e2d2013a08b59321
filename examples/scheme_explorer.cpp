// Scheme explorer: run ANY merging scheme — including ones the paper never
// evaluated, written in the functional grammar — against a workload, and
// inspect per-merge-block statistics.
//
//   ./scheme_explorer "C(CP(S(0,1),2,3),...)" [workload] [budget]
//   ./scheme_explorer 3SCC MMHH               (--help for details)
#include <iostream>
#include <memory>

#include "sim/session.hpp"
#include "support/args.hpp"
#include "support/check.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace cvmt;
  ArgParser args("scheme_explorer",
                 "Runs an arbitrary merging scheme (paper name or "
                 "functional grammar) against a Table 2 workload and "
                 "prints per-merge-block statistics.");
  args.add_positional("scheme", "Merging scheme (default 2SC3).");
  args.add_positional("workload", "Table 2 ILP combo (default LMHH).");
  args.add_positional("budget", "Instruction budget per thread.");
  switch (args.parse(argc, argv)) {
    case ArgParser::Outcome::kHelp: return 0;
    case ArgParser::Outcome::kError: return 2;
    case ArgParser::Outcome::kOk: break;
  }
  const std::string scheme_text = args.positional_or(0, "2SC3");
  const std::string workload_name = args.positional_or(1, "LMHH");

  Scheme scheme = Scheme::single_thread();
  try {
    scheme = Scheme::parse(scheme_text);
  } catch (const CheckError& e) {
    std::cerr << "bad scheme \"" << scheme_text << "\": " << e.what()
              << "\n(expected a paper name like 3SCC or functional "
                 "syntax like S(CP(0,1,2),3); try --help)\n";
    return 2;
  }
  std::cout << "scheme " << scheme.name() << " = " << scheme.canonical()
            << "  (" << scheme.num_threads() << " threads, "
            << scheme.count_blocks(MergeKind::kSmt) << " SMT + "
            << scheme.count_blocks(MergeKind::kCsmt)
            << " CSMT merge blocks)\n\n";

  SimConfig config;
  if (args.num_positionals() > 2) {
    const std::string& budget = args.positional(2);
    config.instruction_budget = std::strtoull(budget.c_str(), nullptr, 10);
    if (config.instruction_budget == 0) {
      std::cerr << "bad budget \"" << budget
                << "\" (expected a positive instruction count)\n";
      return 2;
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : table2_workloads())
    if (w.ilp_combo == workload_name) workload = &w;
  if (workload == nullptr) {
    std::cerr << "unknown workload " << workload_name
              << " (expected a Table 2 ILP combo such as LMHH)\n";
    return 2;
  }

  // An N-thread scheme needs N software threads; reuse the workload list
  // round-robin if the scheme is wider than 4.
  std::vector<std::shared_ptr<const SyntheticProgram>> programs;
  for (int t = 0; t < scheme.num_threads(); ++t)
    programs.push_back(ArtifactCache::global().program(
        workload->benchmarks[static_cast<std::size_t>(t) % 4],
        config.machine));

  const SimResult r = run_simulation(scheme, programs, config);

  std::cout << "IPC " << format_fixed(r.ipc, 3) << " over "
            << format_grouped(static_cast<long long>(r.cycles))
            << " cycles; idle cycles "
            << format_grouped(static_cast<long long>(r.idle_cycles))
            << "\n\n";

  TableWriter threads({"Thread", "Benchmark", "Instrs", "Ops", "Bubbles",
                       "DCache stall", "Branch stall"});
  for (std::size_t t = 0; t < r.threads.size(); ++t) {
    const auto& tr = r.threads[t];
    threads.add_row({std::to_string(t), tr.benchmark,
                     format_grouped(static_cast<long long>(
                         tr.stats.instructions)),
                     format_grouped(static_cast<long long>(tr.stats.ops)),
                     format_grouped(static_cast<long long>(
                         tr.stats.bubbles)),
                     format_grouped(static_cast<long long>(
                         tr.stats.dcache_stall_cycles)),
                     format_grouped(static_cast<long long>(
                         tr.stats.branch_stall_cycles))});
  }
  threads.print(std::cout);

  std::cout << "\nPer-merge-block reject rates (preorder; each block "
               "labelled by its canonical sub-scheme):\n";
  TableWriter blocks({"Sub-scheme", "Kind", "Attempts", "Rejects",
                      "Reject %"});
  for (const MergeNodeStats& n : r.merge_nodes)
    blocks.add_row({n.label, std::string(1, to_char(n.kind)),
                    format_grouped(static_cast<long long>(n.attempts)),
                    format_grouped(static_cast<long long>(n.rejects)),
                    format_fixed(100.0 * n.reject_rate(), 1)});
  blocks.print(std::cout);

  std::cout << "\nThreads issued per cycle:\n";
  for (std::size_t k = 0; k < r.issued_per_cycle.num_buckets(); ++k)
    std::cout << "  " << k << " threads: "
              << format_fixed(100.0 * r.issued_per_cycle.fraction(k), 1)
              << "%\n";
  return 0;
}
