// Trace inspector: dump a window of a benchmark's dynamic VLIW stream in
// the paper's Fig 1 layout, then demonstrate the two merge checks on
// consecutive instruction pairs from two different benchmarks.
//
//   ./trace_inspector [benchmark] [count]   (--help for details)
#include <iostream>

#include "isa/footprint.hpp"
#include "sim/session.hpp"
#include "support/args.hpp"
#include "trace/trace_generator.hpp"

int main(int argc, char** argv) {
  using namespace cvmt;
  ArgParser args("trace_inspector",
                 "Dumps a window of a benchmark's dynamic VLIW stream and "
                 "demonstrates the CSMT/SMT merge checks against a second "
                 "benchmark.");
  args.add_positional("benchmark", "Table 1 benchmark name (default mcf).");
  args.add_positional("count", "Instructions to dump (default 12).");
  switch (args.parse(argc, argv)) {
    case ArgParser::Outcome::kHelp: return 0;
    case ArgParser::Outcome::kError: return 2;
    case ArgParser::Outcome::kOk: break;
  }
  const std::string name = args.positional_or(0, "mcf");
  int count = 12;
  if (args.num_positionals() > 1) {
    count = std::atoi(args.positional(1).c_str());
    if (count <= 0) {
      std::cerr << "bad count \"" << args.positional(1)
                << "\" (expected a positive instruction count)\n";
      return 2;
    }
  }
  const MachineConfig machine = MachineConfig::vex4x4();

  ArtifactCache& artifacts = ArtifactCache::global();
  TraceGenerator gen(artifacts.program(name, machine), 1);

  std::cout << "dynamic VLIW stream of '" << name << "' (one line per\n"
            << "instruction; clusters separated by '|', '-' = empty slot):\n\n";
  for (int i = 0; i < count; ++i) {
    const Instruction instr = gen.next();
    std::cout << (instr.empty() ? "  [bubble] " : "  ")
              << instr.to_string(machine);
    if (const Operation* br = instr.taken_branch())
      std::cout << "   <- taken branch (cluster "
                << static_cast<int>(br->cluster) << ")";
    std::cout << "\n";
  }

  // Fig 1 in miniature: pair this thread against a second one and apply
  // both merge checks.
  const std::string other_name = name == "idct" ? "mcf" : "idct";
  TraceGenerator other(artifacts.program(other_name, machine), 2);
  std::cout << "\nmerge checks against '" << other_name << "':\n\n";
  int csmt_ok = 0, smt_ok = 0, trials = 0;
  for (int i = 0; i < 2000; ++i) {
    const Instruction a = gen.next();
    const Instruction b = other.next();
    if (a.empty() || b.empty()) continue;
    const Footprint fa = Footprint::of(a, machine);
    const Footprint fb = Footprint::of(b, machine);
    ++trials;
    csmt_ok += Footprint::csmt_compatible(fa, fb) ? 1 : 0;
    smt_ok += Footprint::smt_compatible(fa, fb, machine) ? 1 : 0;
    if (i < 3) {
      std::cout << "  T0: " << a.to_string(machine) << "\n  T1: "
                << b.to_string(machine) << "\n    CSMT "
                << (Footprint::csmt_compatible(fa, fb) ? "merges"
                                                       : "conflicts")
                << ", SMT "
                << (Footprint::smt_compatible(fa, fb, machine)
                        ? "merges"
                        : "conflicts")
                << "\n\n";
    }
  }
  std::cout << "over " << trials << " non-bubble pairs: CSMT merges "
            << 100 * csmt_ok / trials << "%, SMT merges "
            << 100 * smt_ok / trials
            << "% (every CSMT-mergeable pair is SMT-mergeable)\n";
  return 0;
}
