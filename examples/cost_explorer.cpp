// Cost explorer: enumerate every cascade scheme for N threads, price the
// merge-control hardware and print the area/delay table plus the Pareto
// frontier (no simulation — pure cost model).
//
//   ./cost_explorer [threads]   (--help for details)
#include <algorithm>
#include <iostream>
#include <vector>

#include "cost/scheme_cost.hpp"
#include "support/args.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace cvmt;
  ArgParser args("cost_explorer",
                 "Enumerates every cascade scheme for N threads and prints "
                 "the merge-control area/delay table with the Pareto "
                 "frontier.");
  args.add_positional("threads", "Thread count, 2..8 (default 4).");
  switch (args.parse(argc, argv)) {
    case ArgParser::Outcome::kHelp: return 0;
    case ArgParser::Outcome::kError: return 2;
    case ArgParser::Outcome::kOk: break;
  }
  int threads = 4;
  if (args.num_positionals() > 0) {
    threads = std::atoi(args.positional(0).c_str());
  }
  if (threads < 2 || threads > kMaxThreads) {
    std::cerr << "threads must be in [2," << kMaxThreads << "]\n";
    return 2;
  }
  const MachineConfig machine = MachineConfig::vex4x4();

  struct Entry {
    std::string name;
    SchemeCost cost;
    int smt_blocks;
  };
  std::vector<Entry> entries;

  // All 2^(threads-1) cascades over {S, C} levels...
  const int levels = threads - 1;
  for (int bits = 0; bits < (1 << levels); ++bits) {
    std::vector<MergeKind> kinds;
    for (int l = 0; l < levels; ++l)
      kinds.push_back((bits >> l) & 1 ? MergeKind::kSmt : MergeKind::kCsmt);
    const Scheme s = Scheme::cascade(kinds);
    entries.push_back({s.name(), scheme_cost(s, machine),
                       s.count_blocks(MergeKind::kSmt)});
  }
  // ...plus the wide parallel CSMT block.
  const Scheme cp = Scheme::parallel_csmt(threads);
  entries.push_back(
      {cp.name(), scheme_cost(cp, machine), 0});

  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.cost.transistors < b.cost.transistors;
            });

  TableWriter t({"Scheme", "SMT blocks", "Transistors", "Gate delays",
                 "Pareto"});
  // Pareto frontier on (transistors ASC, delay): a point qualifies if no
  // earlier (cheaper) point has delay <= its delay.
  double best_delay = 1e300;
  for (const Entry& e : entries) {
    const bool pareto = e.cost.gate_delay < best_delay;
    if (pareto) best_delay = e.cost.gate_delay;
    t.add_row({e.name, std::to_string(e.smt_blocks),
               format_grouped(e.cost.transistors),
               format_fixed(e.cost.gate_delay, 1), pareto ? "*" : ""});
  }
  t.print(std::cout);
  std::cout << "\n'*' = on the area/delay Pareto frontier (cost only:\n"
               "CSMT-only schemes dominate it by construction). The\n"
               "performance dimension that makes one-SMT-level schemes\n"
               "like 2SC3 attractive is in `cvmt run fig11` / `fig12`.\n";
  return 0;
}
