// One self-contained differential-fuzzing case: a merge scheme, a
// randomized multiprogrammed workload (one BenchmarkProfile per software
// thread) and the full simulation configuration (machine shape, memory
// system, OS policy knobs and seeds).
//
// A case is the unit the oracle checks and the shrinker minimizes, so it
// must be (a) reproducible from its own fields alone — no hidden state —
// and (b) serializable: failures are persisted as JSON repro files under
// tests/corpus/ and replayed by tests/fuzz_test.cpp forever after. The
// file holds the machine, memory system and switch policy as the lines of
// their `.machine` description (isa/machine_file.hpp), which the machine
// file parser reads back. The oracle-controlled knobs (StatsLevel,
// EvalMode, stall fast-forward) are deliberately NOT part of a case: the
// oracle sweeps them, the case pins everything else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "support/json.hpp"
#include "trace/benchmark_profile.hpp"

namespace cvmt {

struct FuzzCase {
  /// Display label: "seed-<n>" for generated cases, "<label>+shrunk" after
  /// minimization, the file stem for corpus replays.
  std::string label;
  /// Generator seed this case was derived from (0 for hand-written or
  /// shrunk cases — they are no longer reachable from any seed).
  std::uint64_t seed = 0;
  /// Scheme in canonical functional syntax, e.g. "S(CP(0,1,2),3)".
  std::string scheme;
  /// One profile per software thread. May be larger than the scheme's
  /// hardware thread count (the OS timeslices) or smaller (slots idle).
  std::vector<BenchmarkProfile> profiles;
  /// Machine + memory + policies + budgets + seeds of the run.
  SimConfig sim;

  /// The parsed scheme. Throws CheckError when it does not parse — the
  /// oracle treats that as a failure too, like profile knobs out of range.
  [[nodiscard]] Scheme parse_scheme() const;

  /// One-line human-readable summary ("S(0,1) 2sw 4x4 budget=800 ...").
  [[nodiscard]] std::string summary() const;

  /// The case file's content (DESIGN.md §6). from_json throws CheckError
  /// naming the field, the version or the `sim.machine` line it rejects.
  [[nodiscard]] JsonValue to_json() const;
  [[nodiscard]] static FuzzCase from_json(const JsonValue& v);
};

/// File persistence for corpus repro files. Paths are plain filesystem
/// paths; save_case overwrites. load_case's errors begin with the path.
void save_case(const std::string& path, const FuzzCase& c);
[[nodiscard]] FuzzCase load_case(const std::string& path);
/// Loads every *.json under `dir` (sorted by filename so replay order is
/// deterministic); missing directory = empty corpus.
[[nodiscard]] std::vector<FuzzCase> load_corpus_dir(const std::string& dir);

}  // namespace cvmt
