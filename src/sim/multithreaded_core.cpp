#include "sim/multithreaded_core.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace cvmt {

MultithreadedCore::MultithreadedCore(std::shared_ptr<const MergePlan> plan,
                                     PriorityPolicy priority,
                                     MemorySystem& mem,
                                     MissPolicy miss_policy,
                                     CoreOptions options)
    : engine_(std::move(plan), priority, options.stats, options.eval_mode),
      mem_(mem),
      miss_policy_(miss_policy),
      options_(options) {}

void MultithreadedCore::set_thread(int slot, ThreadContext* thread) {
  CVMT_CHECK(slot >= 0 && slot < num_slots());
  slots_[static_cast<std::size_t>(slot)] = thread;
}

std::uint64_t MultithreadedCore::run_until(std::uint64_t cycle,
                                           std::uint64_t end,
                                           bool& any_done) {
  const int n = num_slots();
  constexpr std::uint64_t kNever = ~std::uint64_t{0};

  // The window works on locals (DESIGN.md §3): the slot bindings, the
  // memory system, the stall charges, the merge engine's Window (rotation,
  // cycle count, plan kernel, stats sinks, policy) and the core's own
  // counters are loaded here. What the window changes is written back at
  // the single exit below, whether the window reached its end (possibly
  // by an all-stalled jump) or a thread completed. The per-cycle path
  // touches no member and calls nothing out of line on the merge side.
  const std::array<ThreadContext*, kMaxThreads> slots = slots_;
  MemorySystem& mem = mem_;
  const StallCosts costs =
      StallCosts::of(engine_.machine(), mem.config(), miss_policy_);
  const bool fast_forward = options_.stall_fast_forward;
  MergeEngine::Window merge = engine_.window();
  CoreStats stats = stats_;
  bool done = false;

  // Per-slot cached issue state, so the per-cycle gather is one compare
  // per slot instead of re-polling the thread contexts: `ready[s]` is the
  // first cycle slot s can issue (kNever = empty slot, finished thread,
  // or refill pending) and `fps[s]` its candidate footprint. Threads only
  // change state inside this loop — refill (tracked by `refill_mask`) and
  // consume — so the cache cannot go stale. Slots cannot change
  // mid-window (the OS reschedules only at window boundaries).
  std::array<const Footprint*, kMaxThreads> fps;
  std::array<std::uint64_t, kMaxThreads> ready;
  std::array<const Footprint*, kMaxThreads> offers;
  std::uint32_t refill_mask = 0;
  for (int s = 0; s < n; ++s) {
    ThreadContext* t = slots[static_cast<std::size_t>(s)];
    fps[static_cast<std::size_t>(s)] = nullptr;
    ready[static_cast<std::size_t>(s)] = kNever;
    if (t == nullptr || t->done()) continue;
    if (t->has_pending()) {
      fps[static_cast<std::size_t>(s)] = t->pending_footprint();
      ready[static_cast<std::size_t>(s)] = t->ready_at();
    } else {
      refill_mask |= 1u << static_cast<unsigned>(s);
    }
  }

  while (cycle < end) {
    // Fetch for threads that issued last cycle, in slot order at the
    // cycle after the issue: that order is how a shared ICache sees the
    // fetches.
    while (refill_mask != 0) {
      const int s = std::countr_zero(refill_mask);
      refill_mask &= refill_mask - 1;
      ThreadContext* t = slots[static_cast<std::size_t>(s)];
      t->refill(cycle, mem, s);
      fps[static_cast<std::size_t>(s)] = t->pending_footprint();
      ready[static_cast<std::size_t>(s)] = t->ready_at();
    }

    // Branch-free: whether a slot offers follows the simulated stalls,
    // which a branch predictor cannot learn. A slot is ready only while
    // it holds a fetched instruction, so ready means offering.
    int num_offers = 0;
    int only_offer = -1;
    for (int s = 0; s < n; ++s) {
      const bool offers_now = cycle >= ready[static_cast<std::size_t>(s)];
      offers[static_cast<std::size_t>(s)] =
          offers_now ? fps[static_cast<std::size_t>(s)] : nullptr;
      num_offers += offers_now ? 1 : 0;
      only_offer = offers_now ? s : only_offer;
    }

    if (num_offers != 0) {
      std::uint32_t mask =
          merge.select(offers.data(), num_offers, only_offer).issued_mask;
      while (mask != 0) {
        const int s = std::countr_zero(mask);
        mask &= mask - 1;
        ThreadContext* t = slots[static_cast<std::size_t>(s)];
        stats.total_ops +=
            static_cast<std::uint64_t>(t->consume(cycle, mem, s, costs));
        ++stats.total_instructions;
        ready[static_cast<std::size_t>(s)] = kNever;
        if (t->done())
          done = true;
        else
          refill_mask |= 1u << static_cast<unsigned>(s);
      }
      ++stats.cycles;
      ++cycle;
      if (done) break;
      continue;
    }

    // All-stalled window: every resident thread already holds a fetched
    // instruction with ready[s] > cycle, so nothing can change before the
    // earliest one. Jump there in one step, bulk-accounting the skipped
    // cycles as idle. The merge network is never consulted on a
    // candidate-less cycle, so rotation and every merge statistic are
    // untouched — exactly as when stepping.
    std::uint64_t next = end;
    if (fast_forward) {
      for (int s = 0; s < n; ++s)
        next = std::min(next, ready[static_cast<std::size_t>(s)]);
      // All slots empty (or every resident thread done): idle to `end`.
      next = std::max(next, cycle + 1);
    } else {
      next = cycle + 1;
    }
    stats.idle_cycles += next - cycle;
    stats.cycles += next - cycle;
    cycle = next;
  }

  engine_.close(merge);
  stats_ = stats;
  any_done = done;
  return cycle;
}

bool MultithreadedCore::step(std::uint64_t cycle) {
  bool any_done = false;
  run_until(cycle, cycle + 1, any_done);
  return any_done;
}

}  // namespace cvmt
