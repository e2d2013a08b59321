// The session layer: the build/run split behind every sweep.
//
// A simulation has two lifetimes that the dense paper grids (scheme x
// workload x machine, five oracle configurations per fuzz case) want
// separated:
//
//   1. *Compiled artifacts* — immutable, machine-keyed products of the
//      expensive build steps: the MergePlan of a scheme on a machine
//      (core/merge_plan.hpp: the validated Scheme and machine, compiled)
//      and CompiledWorkload (materialized SyntheticPrograms). Built once
//      in a thread-safe, process-shareable ArtifactCache, keyed
//      canonically (scheme name + canonical tree + machine, full profile
//      content + machine), and shared freely across threads.
//   2. *Run state* — everything a single simulation mutates: thread
//      contexts, cache arrays, merge statistics, the OS scheduler.
//      run_simulation (sim/simulation.hpp) builds it fresh on every call
//      and drops it on return, so no run can see another's state.
//
// SimSession joins the two for a sweep worker: it takes each run's plan
// and workload from its ArtifactCache and hands them to run_simulation.
#pragma once

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulation.hpp"

namespace cvmt {

/// Appends the canonical serialization of `machine` that every artifact
/// key embeds (and the result store's keys after them).
void append_machine_key(std::string& out, const MachineConfig& machine);

/// Canonical key of (scheme, machine), under which the artifact cache
/// keeps the scheme's MergePlan and the result store's point keys start:
/// display name + canonical tree + the full machine configuration. The
/// display name is part of the key because SimResult::scheme carries it —
/// two schemes with identical trees but different names are distinct
/// artifacts.
[[nodiscard]] std::string scheme_key(const Scheme& scheme,
                                     const MachineConfig& machine);

/// Immutable compiled form of one multiprogrammed workload on one machine:
/// the materialized programs, one per software thread, in thread order.
struct CompiledWorkload {
  std::vector<std::shared_ptr<const SyntheticProgram>> programs;
};

/// Lookup/build counters of one ArtifactCache, per artifact kind. A hit
/// is any lookup that found an entry — including one whose build was
/// still in flight on another thread (the caller waits on the same
/// build, it does not run a second one).
struct ArtifactCacheStats {
  std::uint64_t scheme_hits = 0;
  std::uint64_t scheme_misses = 0;
  std::uint64_t program_hits = 0;
  std::uint64_t program_misses = 0;
  std::uint64_t workload_hits = 0;
  std::uint64_t workload_misses = 0;

  [[nodiscard]] std::uint64_t hits() const {
    return scheme_hits + program_hits + workload_hits;
  }
  [[nodiscard]] std::uint64_t misses() const {
    return scheme_misses + program_misses + workload_misses;
  }
  /// Hits / lookups; 0.0 before the first lookup.
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits() + misses();
    return total == 0 ? 0.0
                      : static_cast<double>(hits()) /
                            static_cast<double>(total);
  }
};

/// Thread-safe cache of compiled artifacts, shared across sweep workers.
/// Keys are canonical — schemes by name + tree + machine, programs by
/// full profile content + machine — so any two requests for the same
/// logical artifact share one build.
///
/// Builds are serialized *per key*, not cache-wide: a miss installs a
/// shared_future under the cache mutex, then builds outside it, so
/// concurrent misses on distinct keys build in parallel while concurrent
/// misses on the same key share the one build (latecomers block on the
/// future). A build that throws propagates to every waiter and evicts
/// the entry, so a later request retries instead of caching the failure.
class ArtifactCache {
 public:
  ArtifactCache() = default;
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// The merge plan of `scheme` on `machine`, compiling it on first use.
  [[nodiscard]] std::shared_ptr<const MergePlan> scheme(
      const Scheme& scheme, const MachineConfig& machine);

  /// The program realising `profile` on `machine`, building on first use.
  /// Keyed by the full profile content, so fuzz-mutated profiles that
  /// happen to share a name never collide.
  [[nodiscard]] std::shared_ptr<const SyntheticProgram> program(
      const BenchmarkProfile& profile, const MachineConfig& machine);

  /// Table 1 benchmark by name (throws CheckError when unknown).
  [[nodiscard]] std::shared_ptr<const SyntheticProgram> program(
      std::string_view benchmark, const MachineConfig& machine);

  /// The compiled workload of Table 1 `benchmarks` (one per software
  /// thread, in thread order) on `machine`; member programs are shared
  /// with the per-program cache.
  [[nodiscard]] std::shared_ptr<const CompiledWorkload> workload(
      std::span<const std::string> benchmarks, const MachineConfig& machine);

  /// Drops every cached artifact (outstanding shared_ptrs stay valid).
  void clear();

  /// Total number of cached artifacts (schemes + programs + workloads),
  /// counting entries whose build is still in flight.
  [[nodiscard]] std::size_t size() const;

  /// Snapshot of the hit/miss counters (never reset by clear() — they
  /// describe the cache's lifetime, not its current contents).
  [[nodiscard]] ArtifactCacheStats stats() const;

  /// Test instrumentation: `hook(key)` runs on the building thread for
  /// every miss, outside the cache mutex, before the build starts. The
  /// concurrency tests use it to hold two builders mid-build and prove
  /// distinct keys overlap. Pass nullptr to remove.
  void set_build_hook(std::function<void(std::string_view)> hook);

  /// The process-wide cache the experiment layer shares across sweeps.
  [[nodiscard]] static ArtifactCache& global();

 private:
  /// One cache entry: the future every requester of the key shares. The
  /// slot object identity lets the failure path evict exactly its own
  /// entry (never a successor installed after a clear()).
  template <typename T>
  struct Slot {
    std::shared_future<std::shared_ptr<const T>> future;
  };
  template <typename T>
  using SlotMap =
      std::map<std::string, std::shared_ptr<Slot<T>>, std::less<>>;

  /// The per-key build protocol (see the class comment). `build` runs
  /// outside the cache mutex on the missing thread only.
  template <typename T, typename Builder>
  [[nodiscard]] std::shared_ptr<const T> lookup_or_build(
      SlotMap<T>& entries, const std::string& key, std::uint64_t* hits,
      std::uint64_t* misses, Builder&& build);

  mutable std::mutex mu_;
  SlotMap<MergePlan> schemes_;
  SlotMap<SyntheticProgram> programs_;
  SlotMap<CompiledWorkload> workloads_;
  ArtifactCacheStats stats_;
  std::function<void(std::string_view)> build_hook_;
};

/// One worker's simulation session: every run takes its merge plan and
/// workload from a shared ArtifactCache and builds its run state fresh, so
/// a result depends only on the run's own inputs. Cheap to make; the
/// artifact cache it draws from is shared and thread-safe.
class SimSession {
 public:
  explicit SimSession(ArtifactCache& artifacts = ArtifactCache::global())
      : artifacts_(artifacts) {}

  /// Runs one simulation, bit-identical to run_simulation(scheme,
  /// programs, config), with the scheme's plan taken from the cache.
  [[nodiscard]] SimResult run(
      const Scheme& scheme,
      std::span<const std::shared_ptr<const SyntheticProgram>> programs,
      const SimConfig& config);

  /// Same, materializing the Table 1 `benchmarks` through the cache.
  [[nodiscard]] SimResult run(const Scheme& scheme,
                              std::span<const std::string> benchmarks,
                              const SimConfig& config);

  [[nodiscard]] ArtifactCache& artifacts() { return artifacts_; }

 private:
  ArtifactCache& artifacts_;
};

}  // namespace cvmt
