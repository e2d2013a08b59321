// VEX-asm playground: write a program by hand in the textual format,
// load it, and watch how the merge schemes treat it. Also dumps a Table 1
// benchmark to show the full format.
//
//   ./asm_playground            # run the built-in hand-written kernels
//   ./asm_playground mcf        # dump a benchmark's program instead
#include <iostream>
#include <memory>

#include "sim/session.hpp"
#include "support/args.hpp"
#include "support/string_util.hpp"
#include "trace/vex_asm.hpp"

namespace {

// Two hand-written "applications": a narrow pointer-chaser pinned to
// cluster 0, and a wide 3-cluster kernel. Their merge behaviour under
// CSMT depends entirely on the cluster footprints written below.
const char* kNarrow = R"(
.program narrow-chaser
.machine clusters=4 issue=4
.stride 8
.codebytes 32
.midtaken 0.2
.loop trips=32 miss=0.05 code=0x10000 hot=0x20000000+2048 cold=0x40000000
{ c0.2 ld }
{ c0.0 alu }
{ }
{ c0.0 alu ; c0.3 br }
.endloop
)";

const char* kWide = R"(
.program wide-kernel
.machine clusters=4 issue=4
.stride 8
.codebytes 32
.midtaken 0.2
.loop trips=64 miss=0.01 code=0x10000 hot=0x20000000+4096 cold=0x48000000
{ c1.0 alu ; c1.1 mpy ; c1.2 ld ; c2.0 alu ; c2.2 ld ; c3.0 alu }
{ c1.0 alu ; c2.0 alu ; c2.1 alu ; c3.0 alu ; c3.2 st }
{ c1.0 alu ; c1.1 alu ; c2.0 alu ; c3.0 alu ; c3.3 br }
.endloop
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace cvmt;
  ArgParser args("asm_playground",
                 "Runs two hand-written VEX-asm kernels through the "
                 "merging schemes, or dumps a Table 1 benchmark's program "
                 "in the textual format.");
  args.add_positional("benchmark",
                      "Dump this benchmark's program instead of running "
                      "the built-in kernels.");
  switch (args.parse(argc, argv)) {
    case ArgParser::Outcome::kHelp: return 0;
    case ArgParser::Outcome::kError: return 2;
    case ArgParser::Outcome::kOk: break;
  }
  const MachineConfig machine = MachineConfig::vex4x4();

  if (args.num_positionals() > 0) {
    std::cout << dump_program(
        *ArtifactCache::global().program(args.positional(0), machine));
    return 0;
  }

  const auto narrow = parse_program(kNarrow, machine);
  const auto wide = parse_program(kWide, machine);
  std::cout << "narrow-chaser analytic IPCp="
            << format_fixed(narrow->expected_ipc_perfect(), 2)
            << ", wide-kernel IPCp="
            << format_fixed(wide->expected_ipc_perfect(), 2) << "\n\n";

  SimConfig config;
  config.machine = machine;
  config.instruction_budget = 100'000;

  // Two of each: the narrow threads live on cluster 0, the wide ones on
  // clusters 1-3 — CSMT can merge narrow+wide but never narrow+narrow.
  const std::vector<std::shared_ptr<const SyntheticProgram>> programs = {
      narrow, narrow, wide, wide};
  for (const char* scheme : {"1S", "3CCC", "2SC3", "3SSS"}) {
    const SimResult r =
        run_simulation(Scheme::parse(scheme), programs, config);
    std::cout << scheme << ": IPC " << format_fixed(r.ipc, 2)
              << " (avg threads issued/cycle "
              << format_fixed(r.issued_per_cycle.mean(), 2) << ")\n";
  }
  std::cout << "\nEdit the .loop bodies above (clusters, slots, bubbles)\n"
               "and re-run to see the merge checks react.\n";
  return 0;
}
