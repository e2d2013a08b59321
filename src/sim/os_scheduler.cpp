#include "sim/os_scheduler.hpp"

#include <algorithm>

namespace cvmt {
namespace {

/// Poststall's notion of stalled: holding a fetched instruction that
/// cannot issue yet at `cycle`.
bool stalled(const ThreadContext& t, std::uint64_t cycle) {
  return t.has_pending() && t.ready_at() > cycle;
}

}  // namespace

OsScheduler::OsScheduler(std::vector<ThreadContext*> threads,
                         std::uint64_t timeslice, std::uint64_t seed,
                         SwitchPolicyKind policy)
    : pool_(std::move(threads)),
      timeslice_(timeslice),
      policy_(policy),
      rng_(seed) {
  CVMT_CHECK_MSG(!pool_.empty(), "workload needs at least one thread");
  CVMT_CHECK_MSG(timeslice_ >= 1, "timeslice must be positive");
}

void OsScheduler::reschedule(MultithreadedCore& core, std::uint64_t cycle) {
  const int slots = core.num_slots();
  next_.assign(static_cast<std::size_t>(slots), nullptr);
  pick(core, cycle);
  for (int s = 0; s < slots; ++s) {
    ThreadContext* next = next_[static_cast<std::size_t>(s)];
    if (core.thread(s) != next) ++stats_.context_switches;
    core.set_thread(s, next);
  }
  ++stats_.timeslices;
}

void OsScheduler::pick(const MultithreadedCore& core, std::uint64_t cycle) {
  // Runnable = not yet at budget. (The run stops at the first completion,
  // so in practice all threads are runnable here.)
  runnable_.clear();
  for (ThreadContext* t : pool_)
    if (!t->done()) runnable_.push_back(t);
  const std::size_t take = std::min(next_.size(), runnable_.size());
  switch (policy_) {
    case SwitchPolicyKind::kRandomTimeslice:
      // The paper's policy: a random pick, by a Fisher-Yates prefix
      // shuffle.
      for (std::size_t i = 0; i < take; ++i) {
        const std::size_t j = i + rng_.next_below(runnable_.size() - i);
        std::swap(runnable_[i], runnable_[j]);
      }
      std::copy_n(runnable_.begin(), take, next_.begin());
      return;
    case SwitchPolicyKind::kPrestall:
      // simtrax PRESTALL: rotate the resident set round-robin through the
      // runnable pool every slice, switching before stalls accumulate.
      if (runnable_.empty()) return;
      for (std::size_t s = 0; s < take; ++s)
        next_[s] = runnable_[(cursor_ + s) % runnable_.size()];
      cursor_ = (cursor_ + take) % runnable_.size();
      return;
    case SwitchPolicyKind::kPoststall:
      break;
  }

  // simtrax POSTSTALL: residents keep their slot while they make
  // progress; only stalled (or finished) residents are replaced,
  // round-robin from the runnable pool. Falls back to stalled threads
  // when nothing better is runnable, so slots never idle while any thread
  // could eventually issue.
  used_.assign(pool_.size(), false);
  const auto index_of = [&](const ThreadContext* t) -> std::size_t {
    const auto it = std::find(pool_.begin(), pool_.end(), t);
    CVMT_CHECK_MSG(it != pool_.end(),
                   "resident thread not in the scheduler pool");
    return static_cast<std::size_t>(it - pool_.begin());
  };
  // Pass 1: non-stalled residents stay put.
  for (std::size_t s = 0; s < next_.size(); ++s) {
    ThreadContext* cur = core.thread(static_cast<int>(s));
    if (cur != nullptr && !cur->done() && !stalled(*cur, cycle)) {
      next_[s] = cur;
      used_[index_of(cur)] = true;
    }
  }
  // Pass 2: fill vacated slots with non-stalled runnable threads.
  for (ThreadContext*& next : next_)
    if (next == nullptr) next = claim_next(cycle, /*skip_stalled=*/true);
  // Pass 3: nothing non-stalled left — prefer keeping the slot's own
  // (stalled) resident, then any unused runnable thread. A stalled
  // resident resumes mid-slice; an empty slot never does.
  for (std::size_t s = 0; s < next_.size(); ++s) {
    if (next_[s] != nullptr) continue;
    ThreadContext* cur = core.thread(static_cast<int>(s));
    if (cur != nullptr && !cur->done() && !used_[index_of(cur)]) {
      next_[s] = cur;
      used_[index_of(cur)] = true;
      continue;
    }
    next_[s] = claim_next(cycle, /*skip_stalled=*/false);
  }
}

ThreadContext* OsScheduler::claim_next(std::uint64_t cycle,
                                       bool skip_stalled) {
  const std::size_t n = pool_.size();
  for (std::size_t probe = 0; probe < n; ++probe) {
    const std::size_t i = (cursor_ + probe) % n;
    ThreadContext* t = pool_[i];
    if (used_[i] || t->done() || (skip_stalled && stalled(*t, cycle)))
      continue;
    used_[i] = true;
    cursor_ = (i + 1) % n;
    return t;
  }
  return nullptr;
}

std::uint64_t OsScheduler::run(MultithreadedCore& core,
                               std::uint64_t max_cycles) {
  // One timeslice per iteration: reschedule at the slice boundary, then
  // hand the whole window to the core. The core fast-forwards all-stalled
  // stretches inside the window; clamping the window at the boundary
  // guarantees a jump never skips a reschedule point.
  std::uint64_t cycle = 0;
  while (cycle < max_cycles) {
    if (cycle % timeslice_ == 0) reschedule(core, cycle);
    const std::uint64_t slice_end =
        std::min(max_cycles, cycle - cycle % timeslice_ + timeslice_);
    bool any_done = false;
    cycle = core.run_until(cycle, slice_end, any_done);
    if (any_done) break;  // the finishing cycle is already counted
  }
  return cycle;
}

}  // namespace cvmt
