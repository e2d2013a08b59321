// Workload studio: define a custom synthetic benchmark profile, pair it
// with Table 1 applications, and see how the merging schemes respond.
// Demonstrates the BenchmarkProfile API the paper's evaluation is built on.
//
//   ./workload_studio [mean_ops] [mem_frac]   (--help for details)
#include <cstdlib>
#include <iostream>

#include "sim/session.hpp"
#include "support/args.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"

namespace {

bool parse_positive(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && *out > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cvmt;
  ArgParser args("workload_studio",
                 "Builds a custom synthetic benchmark profile and compares "
                 "how the merging schemes respond to it.");
  args.add_positional("mean_ops",
                      "Mean operations per instruction (default 3.5).");
  args.add_positional("mem_frac",
                      "Fraction of memory operations (default 0.3).");
  switch (args.parse(argc, argv)) {
    case ArgParser::Outcome::kHelp: return 0;
    case ArgParser::Outcome::kError: return 2;
    case ArgParser::Outcome::kOk: break;
  }
  double mean_ops = 3.5;
  double mem_frac = 0.3;
  if (args.num_positionals() > 0 &&
      !parse_positive(args.positional(0), &mean_ops)) {
    std::cerr << "bad mean_ops \"" << args.positional(0)
              << "\" (expected a positive number)\n";
    return 2;
  }
  if (args.num_positionals() > 1 &&
      !parse_positive(args.positional(1), &mem_frac)) {
    std::cerr << "bad mem_frac \"" << args.positional(1)
              << "\" (expected a positive fraction)\n";
    return 2;
  }

  // A custom application: medium-wide, fairly memory-hungry.
  BenchmarkProfile custom;
  custom.name = "custom-kernel";
  custom.ilp = IlpDegree::kMedium;
  custom.mean_ops_per_instr = mean_ops;
  custom.mem_op_frac = mem_frac;
  custom.mul_op_frac = 0.08;
  custom.mean_body_instrs = 14;
  // Targets: run at ~mean_ops/1.4 ops/cycle with perfect memory, lose 15%
  // to cache misses.
  custom.target_ipc_perfect = mean_ops / 1.4;
  custom.target_ipc_real = custom.target_ipc_perfect * 0.85;
  custom.hot_bytes = 24 * 1024;
  custom.seed = 4242;
  custom.validate();

  SimConfig config;
  config.instruction_budget = 150'000;
  const MachineConfig machine = config.machine;

  // Programs come from the shared artifact cache — the custom profile is
  // keyed by its full content, so rerunning with the same knobs reuses
  // the built program within this process.
  ArtifactCache& artifacts = ArtifactCache::global();
  const auto custom_prog = artifacts.program(custom, machine);
  std::cout << "custom-kernel analytic IPCp="
            << format_fixed(custom_prog->expected_ipc_perfect(), 2)
            << " IPCr=" << format_fixed(custom_prog->expected_ipc_real(), 2)
            << "\n\n";

  const std::vector<std::shared_ptr<const SyntheticProgram>> programs = {
      custom_prog, artifacts.program("mcf", machine),
      artifacts.program("idct", machine),
      artifacts.program("djpeg", machine)};

  SimSession session(artifacts);
  TableWriter t({"Scheme", "IPC", "custom-kernel ops", "idct ops"});
  for (const char* name : {"1S", "3CCC", "2SC3", "3SSS"}) {
    const SimResult r = session.run(Scheme::parse(name), programs, config);
    std::uint64_t custom_ops = 0, idct_ops = 0;
    for (const auto& tr : r.threads) {
      if (tr.benchmark == "custom-kernel") custom_ops = tr.stats.ops;
      if (tr.benchmark == "idct") idct_ops = tr.stats.ops;
    }
    t.add_row({name, format_fixed(r.ipc, 2),
               format_grouped(static_cast<long long>(custom_ops)),
               format_grouped(static_cast<long long>(idct_ops))});
  }
  t.print(std::cout);
  std::cout << "\nTune mean_ops/mem_frac on the command line to see how\n"
               "instruction width and memory pressure move the schemes.\n";
  return 0;
}
