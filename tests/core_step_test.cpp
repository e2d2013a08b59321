// Direct tests of MultithreadedCore::step(): candidate gathering, issue
// accounting, idle cycles and completion detection, using hand-written
// programs for cycle-exact expectations.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "isa/machine_file.hpp"
#include "sim/multithreaded_core.hpp"
#include "support/rng.hpp"
#include "trace/benchmark_suite.hpp"
#include "trace/vex_asm.hpp"

namespace cvmt {
namespace {

const MachineConfig kM = MachineConfig::vex4x4();

/// A core running `scheme` on the paper's machine over `mem`.
MultithreadedCore make_core(
    Scheme scheme, MemorySystem& mem,
    PriorityPolicy priority = PriorityPolicy::kRoundRobin) {
  return MultithreadedCore(
      std::make_shared<const MergePlan>(std::move(scheme), kM), priority, mem,
      MissPolicy::kSerialized);
}

std::shared_ptr<const SyntheticProgram> cluster_program(int cluster) {
  const std::string text =
      ".program c" + std::to_string(cluster) +
      "\n.machine clusters=4 issue=4\n.stride 8\n.codebytes 32\n"
      ".midtaken 0.0\n"
      ".loop trips=100000 miss=0 code=0x10000 hot=0x20000000+4096 "
      "cold=0x40000000\n"
      "{ c" + std::to_string(cluster) + ".0 alu }\n"
      "{ c" + std::to_string(cluster) + ".0 alu ; c" +
      std::to_string(cluster) + ".3 br }\n.endloop\n";
  return parse_program(text, kM);
}

MemorySystemConfig perfect() {
  MemorySystemConfig m;
  m.perfect = true;
  return m;
}

TEST(CoreStep, DisjointThreadsIssueTogetherUnderCsmt) {
  MemorySystem mem(perfect(), 2);
  MultithreadedCore core = make_core(Scheme::parse("1C"), mem);
  ThreadContext t0("t0", cluster_program(0), 1, 1u << 20);
  ThreadContext t1("t1", cluster_program(2), 2, 1u << 20);
  core.set_thread(0, &t0);
  core.set_thread(1, &t1);
  core.step(0);
  // Clusters 0 and 2 are disjoint: both issue in cycle 0.
  EXPECT_EQ(core.stats().total_instructions, 2u);
  EXPECT_EQ(core.stats().total_ops, 2u);
  EXPECT_EQ(core.stats().idle_cycles, 0u);
}

TEST(CoreStep, SameClusterThreadsAlternateUnderCsmt) {
  MemorySystem mem(perfect(), 2);
  MultithreadedCore core = make_core(Scheme::parse("1C"), mem);
  ThreadContext t0("t0", cluster_program(1), 1, 1u << 20);
  ThreadContext t1("t1", cluster_program(1), 2, 1u << 20);
  core.set_thread(0, &t0);
  core.set_thread(1, &t1);
  for (std::uint64_t c = 0; c < 40; ++c) core.step(c);
  // At most one thread issues per cycle (same cluster conflicts) and the
  // rotation shares the machine fairly between the two.
  EXPECT_LE(core.stats().total_instructions, 40u);
  EXPECT_GT(core.stats().total_instructions, 20u);
  EXPECT_GT(t0.stats().instructions, 8u);
  EXPECT_GT(t1.stats().instructions, 8u);
  const auto& hist = core.engine().issued_histogram();
  EXPECT_EQ(hist.bucket(2), 0u);  // never two at once
}

TEST(CoreStep, EmptySlotsAreIdleCycles) {
  MemorySystem mem(perfect(), 2);
  MultithreadedCore core = make_core(Scheme::parse("1S"), mem);
  core.step(0);  // no threads bound at all
  EXPECT_EQ(core.stats().idle_cycles, 1u);
  EXPECT_EQ(core.stats().cycles, 1u);
  EXPECT_EQ(core.stats().total_instructions, 0u);
}

TEST(CoreStep, ReportsCompletionCycle) {
  MemorySystem mem(perfect(), 1);
  MultithreadedCore core = make_core(Scheme::single_thread(), mem);
  ThreadContext t0("t0", cluster_program(0), 1, 3);
  core.set_thread(0, &t0);
  std::uint64_t cycle = 0;
  bool done = false;
  while (!done && cycle < 100) done = core.step(cycle++);
  EXPECT_TRUE(done);
  EXPECT_EQ(t0.stats().instructions, 3u);
}

TEST(CoreStep, StalledThreadLeavesMachineToOthers) {
  MemorySystem mem(perfect(), 2);
  MultithreadedCore core =
      make_core(Scheme::parse("1S"), mem, PriorityPolicy::kFixed);
  ThreadContext t0("t0", cluster_program(0), 1, 1u << 20);
  ThreadContext t1("t1", cluster_program(0), 2, 1u << 20);
  core.set_thread(0, &t0);
  core.set_thread(1, &t1);
  // SMT merges the two single-ALU packets: both threads progress at full
  // rate, issuing together most cycles.
  for (std::uint64_t c = 0; c < 50; ++c) core.step(c);
  EXPECT_GT(t0.stats().instructions, 10u);
  EXPECT_GT(t1.stats().instructions, 10u);
  EXPECT_GT(core.engine().issued_histogram().bucket(2), 10u);
}

TEST(CoreStep, RejectsBadSlotIndex) {
  MemorySystem mem(perfect(), 2);
  MultithreadedCore core = make_core(Scheme::parse("1S"), mem);
  EXPECT_THROW(core.set_thread(2, nullptr), CheckError);
  EXPECT_THROW(core.set_thread(-1, nullptr), CheckError);
}

// ------------------------------------------- windows against single steps

// run_until() keeps the engine's rotation and cycle count, the core's
// counters and the stall charges in locals for a whole window and writes
// them back when the window ends. A core driven in windows of random
// length must therefore match, after every window, a twin driven one
// step() (a one-cycle window) at a time.

struct WindowCase {
  const char* scheme;
  PriorityPolicy policy;
  StatsLevel stats;
  const char* machine;  ///< built-in machine name
};

std::string case_name(const ::testing::TestParamInfo<WindowCase>& info) {
  const WindowCase& c = info.param;
  const char* policy = c.policy == PriorityPolicy::kRoundRobin ? "RoundRobin"
                       : c.policy == PriorityPolicy::kFixed    ? "Fixed"
                                                               : "Sticky";
  return std::string(c.scheme) + "_" + policy +
         (c.stats == StatsLevel::kFull ? "_Full_" : "_Fast_") + c.machine;
}

void PrintTo(const WindowCase& c, std::ostream* os) {
  *os << c.scheme << '/' << static_cast<int>(c.policy) << '/'
      << (c.stats == StatsLevel::kFull ? "full" : "fast") << '/'
      << c.machine;
}

/// One core with its own memory system and four software threads, of
/// which the first num_slots() are bound. Two rigs built from the same
/// case are identical.
struct Rig {
  Rig(const WindowCase& c, const MachineDescription& d,
      const std::vector<std::shared_ptr<const SyntheticProgram>>& programs)
      : mem(d.mem, Scheme::parse(c.scheme).num_threads()),
        core(std::make_shared<const MergePlan>(Scheme::parse(c.scheme),
                                               d.machine),
             c.policy, mem, MissPolicy::kSerialized, CoreOptions{c.stats}) {
    for (std::size_t t = 0; t < programs.size(); ++t)
      threads.push_back(std::make_unique<ThreadContext>(
          "t" + std::to_string(t), programs[t], 100 + t, 400 + 150 * t));
    for (int s = 0; s < core.num_slots(); ++s)
      core.set_thread(s, threads[static_cast<std::size_t>(s)].get());
  }

  MemorySystem mem;
  MultithreadedCore core;
  std::vector<std::unique_ptr<ThreadContext>> threads;
};

class WindowedRun : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowedRun, WindowedRunMatchesPerCycleSteps) {
  const WindowCase& c = GetParam();
  MachineDescription d;
  ASSERT_TRUE(find_builtin_machine(c.machine, d));
  // Low-IPC programs with cold streams: their misses stall every thread
  // at once often enough for all-stalled jumps.
  std::vector<std::shared_ptr<const SyntheticProgram>> programs;
  for (const char* name : {"mcf", "cjpeg", "blowfish", "colorspace"})
    programs.push_back(
        std::make_shared<const SyntheticProgram>(profile_by_name(name),
                                                 d.machine));
  Rig win(c, d, programs);
  Rig step(c, d, programs);

  // A probe packet every thread can offer and no two can share (one
  // fixed branch slot of cluster 0): the next decision on four copies of
  // it issues exactly the highest-priority thread, so it reads out the
  // rotation.
  const auto probe = parse_program(
      ".program probe\n.machine clusters=4 issue=4\n.loop trips=1 miss=0 "
      "code=0x10000 hot=0x20000000+4096 cold=0x40000000\n"
      "{ c0.3 br }\n.endloop\n",
      MachineConfig::vex4x4());
  const Footprint* fp = &probe->loops()[0].steps[0].footprint;
  const std::array<const Footprint*, kMaxThreads> all = {fp, fp, fp, fp};

  Xoshiro256 rng(0xC0DE);
  int by_length = 0, by_completion = 0, by_stalled_jump = 0;
  std::uint64_t cycle = 0;
  for (int w = 0; w < 300; ++w) {
    const std::uint64_t end = cycle + 1 + rng.next_below(120);
    bool win_done = false;
    const std::uint64_t reached = win.core.run_until(cycle, end, win_done);
    ASSERT_GT(reached, cycle);
    ASSERT_LE(reached, end);

    // The twin steps the same cycles; only the last may complete a thread.
    int trailing_idle = 0;
    for (std::uint64_t k = cycle; k < reached; ++k) {
      const std::uint64_t idle = step.core.stats().idle_cycles;
      const bool done = step.core.step(k);
      ASSERT_EQ(done, win_done && k + 1 == reached) << "window " << w;
      trailing_idle =
          step.core.stats().idle_cycles > idle ? trailing_idle + 1 : 0;
    }
    if (win_done)
      ++by_completion;
    else if (trailing_idle >= 2)
      ++by_stalled_jump;  // min(ready) >= end: one jump to the window end
    else
      ++by_length;
    ASSERT_TRUE(win_done || reached == end);

    const CoreStats& a = win.core.stats();
    const CoreStats& b = step.core.stats();
    ASSERT_EQ(a.cycles, b.cycles) << "window " << w;
    ASSERT_EQ(a.total_ops, b.total_ops) << "window " << w;
    ASSERT_EQ(a.total_instructions, b.total_instructions) << "window " << w;
    ASSERT_EQ(a.idle_cycles, b.idle_cycles) << "window " << w;
    const MergeEngine& ea = win.core.engine();
    const MergeEngine& eb = step.core.engine();
    ASSERT_EQ(ea.cycles(), eb.cycles()) << "window " << w;
    const Histogram& ha = ea.issued_histogram();
    const Histogram& hb = eb.issued_histogram();
    ASSERT_EQ(ha.total(), hb.total()) << "window " << w;
    for (std::size_t k = 0; k < ha.num_buckets(); ++k)
      ASSERT_EQ(ha.bucket(k), hb.bucket(k)) << "window " << w;
    for (std::size_t k = 0; k < ea.node_stats().size(); ++k) {
      ASSERT_EQ(ea.node_stats()[k].attempts, eb.node_stats()[k].attempts);
      ASSERT_EQ(ea.node_stats()[k].rejects, eb.node_stats()[k].rejects);
    }
    MergeEngine next_a = ea;
    MergeEngine next_b = eb;
    const std::span<const Footprint* const> cands(
        all.data(), static_cast<std::size_t>(win.core.num_slots()));
    ASSERT_EQ(next_a.select(cands).issued_mask,
              next_b.select(cands).issued_mask)
        << "window " << w;
    for (std::size_t t = 0; t < win.threads.size(); ++t) {
      ASSERT_EQ(win.threads[t]->stats().instructions,
                step.threads[t]->stats().instructions);
      ASSERT_EQ(win.threads[t]->stats().ops, step.threads[t]->stats().ops);
    }

    // Between windows, as the OS does: replace finished threads with new
    // ones (rebinding any slot that held them) and sometimes rebind the
    // slots to another arrangement of the four.
    for (Rig* r : {&win, &step}) {
      for (std::size_t t = 0; t < r->threads.size(); ++t) {
        std::unique_ptr<ThreadContext>& th = r->threads[t];
        if (!th->done()) continue;
        auto next = std::make_unique<ThreadContext>(
            th->name(), programs[t], 1000 + 7 * w + t,
            300 + 37 * static_cast<std::uint64_t>(w % 11));
        for (int s = 0; s < r->core.num_slots(); ++s)
          if (r->core.thread(s) == th.get())
            r->core.set_thread(s, next.get());
        th = std::move(next);
      }
    }
    if (rng.next_below(4) == 0) {
      const std::uint64_t shift = rng.next_below(4);
      for (Rig* r : {&win, &step})
        for (int s = 0; s < r->core.num_slots(); ++s)
          r->core.set_thread(
              s, r->threads[(static_cast<std::size_t>(s) + shift) % 4].get());
    }
    cycle = reached;
  }
  EXPECT_GT(by_length, 0);
  EXPECT_GT(by_completion, 0);
  EXPECT_GT(by_stalled_jump, 0);
}

std::vector<WindowCase> window_cases() {
  std::vector<WindowCase> cases;
  for (const char* scheme : {"3SSS", "2CC", "IMT4", "1S"})
    for (const PriorityPolicy policy :
         {PriorityPolicy::kRoundRobin, PriorityPolicy::kFixed,
          PriorityPolicy::kStickyOnStall})
      for (const StatsLevel stats : {StatsLevel::kFast, StatsLevel::kFull})
        cases.push_back({scheme, policy, stats, "vex4x4"});
  // Heterogeneous clusters check SMT merges against per-cluster widths;
  // the banked DCache with an L2 exercises every stall charge.
  for (const char* machine : {"het4422", "l2banked"})
    for (const char* scheme : {"3SSS", "2CC"})
      for (const PriorityPolicy policy :
           {PriorityPolicy::kRoundRobin, PriorityPolicy::kStickyOnStall})
        cases.push_back({scheme, policy, StatsLevel::kFull, machine});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(CoreStep, WindowedRun,
                         ::testing::ValuesIn(window_cases()), case_name);

}  // namespace
}  // namespace cvmt
