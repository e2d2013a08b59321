#include "sim/switch_policy.hpp"

#include <algorithm>

#include "sim/multithreaded_core.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace cvmt {
namespace {

/// The paper's policy: replacement threads are picked at random. The
/// collection order, Fisher-Yates prefix shuffle and RNG draw sequence
/// reproduce the original OsScheduler::reschedule exactly — existing runs
/// are bit-identical under this policy.
class RandomTimeslicePolicy final : public SwitchPolicy {
 public:
  explicit RandomTimeslicePolicy(std::uint64_t seed) : rng_(seed) {}

  void pick(std::span<ThreadContext* const> pool,
            const MultithreadedCore& /*core*/, std::uint64_t /*cycle*/,
            std::vector<ThreadContext*>& next) override {
    // Runnable = not yet at budget. (The run stops at the first
    // completion, so in practice all threads are runnable here.)
    runnable_.clear();
    for (ThreadContext* t : pool)
      if (!t->done()) runnable_.push_back(t);

    const std::size_t take =
        std::min<std::size_t>(next.size(), runnable_.size());
    for (std::size_t i = 0; i < take; ++i) {
      const std::size_t j = i + rng_.next_below(runnable_.size() - i);
      std::swap(runnable_[i], runnable_[j]);
    }
    for (std::size_t s = 0; s < take; ++s) next[s] = runnable_[s];
  }

 private:
  Xoshiro256 rng_;
  std::vector<ThreadContext*> runnable_;
};

/// simtrax PRESTALL at timeslice granularity: rotate the resident set
/// round-robin through the runnable pool every slice, switching before
/// stalls accumulate. Fully deterministic.
class PrestallPolicy final : public SwitchPolicy {
 public:
  void pick(std::span<ThreadContext* const> pool,
            const MultithreadedCore& /*core*/, std::uint64_t /*cycle*/,
            std::vector<ThreadContext*>& next) override {
    runnable_.clear();
    for (ThreadContext* t : pool)
      if (!t->done()) runnable_.push_back(t);
    if (runnable_.empty()) return;

    const std::size_t take =
        std::min<std::size_t>(next.size(), runnable_.size());
    for (std::size_t s = 0; s < take; ++s)
      next[s] = runnable_[(cursor_ + s) % runnable_.size()];
    cursor_ = (cursor_ + take) % runnable_.size();
  }

 private:
  std::size_t cursor_ = 0;
  std::vector<ThreadContext*> runnable_;
};

/// simtrax POSTSTALL at timeslice granularity: residents keep their slot
/// while they are making progress; only stalled (or finished) residents
/// are replaced, round-robin from the runnable pool. Falls back to stalled
/// threads when nothing better is runnable, so slots never idle while any
/// thread could eventually issue.
class PoststallPolicy final : public SwitchPolicy {
 public:
  void pick(std::span<ThreadContext* const> pool,
            const MultithreadedCore& core, std::uint64_t cycle,
            std::vector<ThreadContext*>& next) override {
    const std::size_t n = pool.size();
    used_.assign(n, false);

    const auto index_of = [&](const ThreadContext* t) -> std::size_t {
      for (std::size_t i = 0; i < n; ++i)
        if (pool[i] == t) return i;
      CVMT_CHECK_MSG(false, "resident thread not in the scheduler pool");
      __builtin_unreachable();
    };
    const auto stalled = [&](const ThreadContext& t) {
      return t.has_pending() && t.ready_at() > cycle;
    };

    // Pass 1: non-stalled residents stay put.
    for (std::size_t s = 0; s < next.size(); ++s) {
      ThreadContext* cur = core.thread(static_cast<int>(s));
      if (cur != nullptr && !cur->done() && !stalled(*cur)) {
        next[s] = cur;
        used_[index_of(cur)] = true;
      }
    }
    // Pass 2: fill vacated slots with non-stalled runnable threads,
    // round-robin from the cursor.
    for (std::size_t s = 0; s < next.size(); ++s) {
      if (next[s] != nullptr) continue;
      if (ThreadContext* t = claim_next(pool, [&](const ThreadContext& c) {
            return !stalled(c);
          }))
        next[s] = t;
    }
    // Pass 3: nothing non-stalled left — prefer keeping the slot's own
    // (stalled) resident, then any unused runnable thread. A stalled
    // resident resumes mid-slice; an empty slot never does.
    for (std::size_t s = 0; s < next.size(); ++s) {
      if (next[s] != nullptr) continue;
      ThreadContext* cur = core.thread(static_cast<int>(s));
      if (cur != nullptr && !cur->done() && !used_[index_of(cur)]) {
        next[s] = cur;
        used_[index_of(cur)] = true;
        continue;
      }
      if (ThreadContext* t =
              claim_next(pool, [](const ThreadContext&) { return true; }))
        next[s] = t;
    }
  }

 private:
  template <typename Pred>
  ThreadContext* claim_next(std::span<ThreadContext* const> pool,
                            Pred&& ok) {
    const std::size_t n = pool.size();
    for (std::size_t probe = 0; probe < n; ++probe) {
      const std::size_t i = (cursor_ + probe) % n;
      ThreadContext* t = pool[i];
      if (used_[i] || t->done() || !ok(*t)) continue;
      used_[i] = true;
      cursor_ = (i + 1) % n;
      return t;
    }
    return nullptr;
  }

  std::size_t cursor_ = 0;
  std::vector<bool> used_;
};

}  // namespace

const char* to_string(SwitchPolicyKind kind) {
  switch (kind) {
    case SwitchPolicyKind::kRandomTimeslice: return "random";
    case SwitchPolicyKind::kPrestall: return "prestall";
    case SwitchPolicyKind::kPoststall: return "poststall";
  }
  return "?";
}

bool switch_policy_from_string(std::string_view name,
                               SwitchPolicyKind& out) {
  if (name == "random") {
    out = SwitchPolicyKind::kRandomTimeslice;
  } else if (name == "prestall") {
    out = SwitchPolicyKind::kPrestall;
  } else if (name == "poststall") {
    out = SwitchPolicyKind::kPoststall;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<SwitchPolicy> make_switch_policy(SwitchPolicyKind kind,
                                                 std::uint64_t seed) {
  switch (kind) {
    case SwitchPolicyKind::kRandomTimeslice:
      return std::make_unique<RandomTimeslicePolicy>(seed);
    case SwitchPolicyKind::kPrestall:
      return std::make_unique<PrestallPolicy>();
    case SwitchPolicyKind::kPoststall:
      return std::make_unique<PoststallPolicy>();
  }
  CVMT_CHECK_MSG(false, "unknown switch policy");
  __builtin_unreachable();
}

}  // namespace cvmt
