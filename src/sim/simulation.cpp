#include "sim/simulation.hpp"

namespace cvmt {

SimResult run_simulation(
    const std::shared_ptr<const MergePlan>& plan,
    std::span<const std::shared_ptr<const SyntheticProgram>> programs,
    const SimConfig& config) {
  MemorySystem mem(config.mem, plan->num_threads());
  MultithreadedCore core(plan, config.priority, mem, config.miss_policy,
                         CoreOptions{config.stats, config.eval_mode,
                                     config.stall_fast_forward});
  CVMT_CHECK_MSG(config.machine == plan->machine(),
                 "SimConfig.machine must equal the compiled scheme's "
                 "machine");
  CVMT_CHECK_MSG(!programs.empty(), "empty workload");

  std::vector<std::unique_ptr<ThreadContext>> threads;
  std::vector<ThreadContext*> pool;
  threads.reserve(programs.size());
  pool.reserve(programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    CVMT_CHECK(programs[i] != nullptr);
    CVMT_CHECK_MSG(programs[i]->machine() == config.machine,
                   "program compiled for a different machine");
    threads.push_back(std::make_unique<ThreadContext>(
        programs[i]->profile().name, programs[i],
        config.stream_seed_base + 0x1000ULL * i, config.instruction_budget));
    pool.push_back(threads.back().get());
  }

  OsScheduler os(std::move(pool), config.timeslice_cycles, config.os_seed,
                 config.switch_policy);
  const std::uint64_t cycles = os.run(core, config.max_cycles);

  SimResult r;
  r.scheme = plan->scheme().name();
  r.cycles = cycles;
  r.total_ops = core.stats().total_ops;
  r.total_instructions = core.stats().total_instructions;
  r.idle_cycles = core.stats().idle_cycles;
  r.ipc = cycles ? static_cast<double>(r.total_ops) /
                       static_cast<double>(cycles)
                 : 0.0;
  r.threads.reserve(threads.size());
  for (const auto& t : threads)
    r.threads.push_back(ThreadResult{t->name(), t->stats()});
  r.icache = mem.icache_stats();
  r.dcache = mem.dcache_stats();
  r.l2 = mem.l2_stats();
  r.issued_per_cycle = core.engine().issued_histogram();
  r.merge_nodes = core.engine().node_stats();
  r.os = os.stats();
  return r;
}

SimResult run_simulation(
    const Scheme& scheme,
    const std::vector<std::shared_ptr<const SyntheticProgram>>& programs,
    const SimConfig& config) {
  CVMT_CHECK_MSG(!programs.empty(), "empty workload");
  return run_simulation(std::make_shared<const MergePlan>(scheme,
                                                         config.machine),
                        programs, config);
}

}  // namespace cvmt
