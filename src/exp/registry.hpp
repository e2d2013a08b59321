// ExperimentRegistry: the single experiment API every consumer goes
// through. Each runner (one file under src/exp/runners/) self-registers an
// Experiment — id, paper artifact, description, declared parameter schema
// and a run function returning generic Dataset sections — and the cvmt
// driver, the serve daemon, the tests and CI all run it from here. Adding
// a new experiment is one new runner file; no report/CMake fan-out.
//
// Registration happens via static initializers, so the runner objects
// must actually be linked: they are compiled as the cvmt_exp OBJECT
// library (see CMakeLists.txt), which the driver and tests link.
// A plain static-archive member with no referenced symbol would be
// dropped by the linker and its experiment would silently vanish.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "exp/params.hpp"
#include "support/dataset.hpp"

namespace cvmt {

/// One printable/serializable unit of an experiment's output: an optional
/// banner title, an optional free-text preamble (table format only), a
/// Dataset, and an optional free-text note after it (table format only).
struct ResultSection {
  std::string title;
  std::string preamble;
  Dataset data;
  std::string note;
  /// Table format prints `note` instead of the Dataset (the Dataset still
  /// carries the values for csv/json). Used by prose blocks such as the
  /// Fig 10 headline relations.
  bool text_only = false;
};

struct ExperimentResult {
  std::vector<ResultSection> sections;
};

/// Context handed to a runner. Params are fully resolved; runners that
/// force a knob (merge-efficiency needs full stats) copy and override.
struct RunContext {
  ExperimentParams params;
};

struct Experiment {
  std::string id;           ///< registry key, e.g. "fig10"
  std::string artifact;     ///< paper artifact, e.g. "Figure 10", or
                            ///< "extension" for beyond-paper experiments
  std::string description;  ///< one line for `cvmt list`
  /// Knobs this experiment consumes; the driver warns when a CLI flag
  /// outside the schema is passed.
  std::vector<ParamKind> schema;
  /// Experiment overrides the resolved stats level to kFull (it reads
  /// merge-node counters). Surfaced by `cvmt list`.
  bool forces_full_stats = false;
  /// Listing/run-all order: paper artifacts first, in paper order.
  int sort_key = 1000;
  std::function<ExperimentResult(const RunContext&)> run;

  [[nodiscard]] bool in_schema(ParamKind k) const;
  /// Comma-separated schema for listings, e.g. "budget,timeslice,workers".
  [[nodiscard]] std::string schema_summary() const;
};

class ExperimentRegistry {
 public:
  /// The process-wide registry the runner files register into.
  [[nodiscard]] static ExperimentRegistry& instance();

  /// Registers `e`; duplicate ids are a programming error (CVMT_CHECK).
  void add(Experiment e);

  /// Lookup by id; nullptr when unknown.
  [[nodiscard]] const Experiment* find(std::string_view id) const;

  /// All experiments, ordered by (sort_key, id) — stable across runs and
  /// link orders, which the deterministic `run all` output relies on.
  [[nodiscard]] std::vector<const Experiment*> all() const;

  [[nodiscard]] std::size_t size() const { return experiments_.size(); }

 private:
  std::vector<Experiment> experiments_;
};

/// File-scope helper: `static RegisterExperiment reg{{...}};` in a runner.
struct RegisterExperiment {
  explicit RegisterExperiment(Experiment e) {
    ExperimentRegistry::instance().add(std::move(e));
  }
};

}  // namespace cvmt
