// The simulation session layer: the build/run split behind every sweep.
//
// run_simulation() conflates three lifetimes that the dense paper grids
// (scheme x workload x machine, five oracle configurations per fuzz case)
// want separated:
//
//   1. *Compiled artifacts* — immutable, machine-keyed products of the
//      expensive build steps: CompiledScheme (validated Scheme + flattened
//      MergePlan) and CompiledWorkload (materialized SyntheticPrograms).
//      Built once, shared freely across threads.
//   2. *The artifact cache* — a thread-safe, process-shareable store of
//      compiled artifacts, keyed canonically (scheme name + canonical tree
//      + machine, full profile content + machine). Sweep workers share one
//      cache instead of each keeping a private ProgramLibrary.
//   3. *Run state* — everything a single simulation mutates: thread
//      contexts, cache arrays, merge statistics, the OS scheduler.
//      SimInstance owns this state and reset()s it in place between runs,
//      so a grid of small runs stops paying construction per point.
//
// The reuse contract is strict bit-identity: a reset instance replays any
// workload exactly as a freshly constructed one would (sim_golden_test and
// the fuzz oracle's replay configuration enforce this). run_simulation()
// remains the one-shot facade, now a thin wrapper over a throwaway
// SimInstance.
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

/// Immutable compiled form of one scheme on one machine: the validated
/// Scheme, its flattened MergePlan (shared by every engine built from this
/// artifact) and the canonical cache key. Thread-safe by immutability.
class CompiledScheme {
 public:
  CompiledScheme(Scheme scheme, const MachineConfig& machine);

  [[nodiscard]] const Scheme& scheme() const { return scheme_; }
  [[nodiscard]] const MachineConfig& machine() const { return machine_; }
  [[nodiscard]] const std::shared_ptr<const MergePlan>& plan() const {
    return plan_;
  }
  /// The cache key this artifact is stored under (see make_key).
  [[nodiscard]] const std::string& key() const { return key_; }

  /// Canonical key of (scheme, machine): display name + canonical tree +
  /// the full machine configuration. The display name is part of the key
  /// because SimResult::scheme carries it — two schemes with identical
  /// trees but different names are distinct artifacts.
  [[nodiscard]] static std::string make_key(const Scheme& scheme,
                                            const MachineConfig& machine);

 private:
  Scheme scheme_;
  MachineConfig machine_;
  std::shared_ptr<const MergePlan> plan_;
  std::string key_;
};

/// Immutable compiled form of one multiprogrammed workload on one machine:
/// the materialized programs, one per software thread, in thread order.
struct CompiledWorkload {
  std::string key;
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

/// Thread-safe cache of compiled artifacts, shared across sweep workers
/// (replacing the per-runner ProgramLibrary copies). Keys are canonical —
/// schemes by name + tree + machine, programs by full profile content +
/// machine — so any two requests for the same logical artifact share one
/// build.
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

  /// The compiled form of `scheme` on `machine`, building it on first use.
  [[nodiscard]] std::shared_ptr<const CompiledScheme> scheme(
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
  SlotMap<CompiledScheme> schemes_;
  SlotMap<SyntheticProgram> programs_;
  SlotMap<CompiledWorkload> workloads_;
  ArtifactCacheStats stats_;
  std::function<void(std::string_view)> build_hook_;
};

/// One reusable simulation: the run-state half of the build/run split.
/// Owns the memory system, the core (with its merge engine) and the thread
/// contexts; run() rebinds them to a workload in place, so consecutive
/// runs reuse every allocation. Cheap knobs (priority, miss policy, stats
/// level, eval mode, budgets, seeds, memory geometry) change between runs
/// via set_config(); the scheme and machine are fixed at construction.
/// Not thread-safe — one instance per worker thread.
class SimInstance {
 public:
  /// `config.machine` must equal the compiled scheme's machine.
  SimInstance(std::shared_ptr<const CompiledScheme> scheme,
              const SimConfig& config);

  // Not copyable or movable: the core holds a reference to this object's
  // own memory system, so every implicit special member would leave a
  // copied/moved instance aliasing (and eventually dangling on) the
  // source's. Hold instances by unique_ptr to store them in containers.
  SimInstance(const SimInstance&) = delete;
  SimInstance& operator=(const SimInstance&) = delete;

  /// Runs `programs` (one per software thread). Begins with an in-place
  /// reset of all run state, so the result is bit-identical to
  /// run_simulation(scheme, programs, config) — and to any earlier run()
  /// of this instance with the same inputs.
  [[nodiscard]] SimResult run(
      std::span<const std::shared_ptr<const SyntheticProgram>> programs);
  [[nodiscard]] SimResult run(const CompiledWorkload& workload) {
    return run(workload.programs);
  }

  /// Replaces the run configuration. The machine must stay the compiled
  /// scheme's; a memory-geometry change rebuilds the cache arrays, every
  /// other knob is a plain store. Takes effect at the next run().
  void set_config(const SimConfig& config);

  /// Explicitly restores the freshly-constructed state (run state zeroed,
  /// thread contexts dropped). run() performs the same logical reset on
  /// entry while *reusing* the context allocations, so calling reset()
  /// between runs is never required for correctness — it exists to make
  /// the reuse invariant testable and to release workload references.
  void reset();

  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] const CompiledScheme& compiled() const { return *scheme_; }

 private:
  [[nodiscard]] static std::shared_ptr<const CompiledScheme> checked(
      std::shared_ptr<const CompiledScheme> scheme);

  std::shared_ptr<const CompiledScheme> scheme_;
  SimConfig config_;
  MemorySystem mem_;
  MultithreadedCore core_;
  /// Recycled across runs (shrunk/grown to the workload size; reset()
  /// rebinds each kept context in place).
  std::vector<std::shared_ptr<ThreadContext>> threads_;
};

/// One worker's simulation session: compiled artifacts come from a shared
/// ArtifactCache, and SimInstances are kept per (scheme, machine) and
/// reused across runs. This is what turns a dense grid sweep into
/// "compile once, run many": consecutive grid points on the same scheme
/// reset the cached instance instead of rebuilding it. Not thread-safe —
/// one session per worker thread; the artifact cache it draws from is
/// shared and thread-safe.
class SimSession {
 public:
  explicit SimSession(ArtifactCache& artifacts = ArtifactCache::global())
      : artifacts_(artifacts) {}

  /// Runs one simulation, bit-identical to run_simulation(scheme,
  /// programs, config), reusing a cached instance when this session has
  /// seen the scheme x machine before.
  [[nodiscard]] SimResult run(
      const Scheme& scheme,
      std::span<const std::shared_ptr<const SyntheticProgram>> programs,
      const SimConfig& config);

  /// Same, materializing the Table 1 `benchmarks` through the cache.
  [[nodiscard]] SimResult run(const Scheme& scheme,
                              std::span<const std::string> benchmarks,
                              const SimConfig& config);

  [[nodiscard]] ArtifactCache& artifacts() { return artifacts_; }
  [[nodiscard]] std::size_t num_instances() const {
    return instances_.size();
  }
  /// Drops the cached instances (artifacts stay in the shared cache).
  void clear() { instances_.clear(); }

 private:
  /// Instances kept per session before the pool recycles itself; bounds
  /// memory when a long-lived session sweeps many distinct schemes.
  static constexpr std::size_t kMaxInstances = 64;

  [[nodiscard]] SimInstance& instance_for(const Scheme& scheme,
                                          const SimConfig& config);

  ArtifactCache& artifacts_;
  std::map<std::string, std::unique_ptr<SimInstance>, std::less<>>
      instances_;
};

}  // namespace cvmt
