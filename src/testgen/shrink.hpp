// Greedy minimization of a failing FuzzCase. The shrinker proposes
// smaller candidates (drop software threads, prune scheme subtrees and
// renumber the thread ids densely, shorten budgets/timeslices/traces,
// simplify policies toward defaults) and keeps any candidate on which
// `fails` still returns true, iterating to a fixpoint under an attempt
// budget (kShrinkMaxAttempts). The failure predicate is injected —
// production passes "the oracle fails", the tests pass synthetic
// predicates — so shrinking logic is testable without planting real
// simulator bugs.
#pragma once

#include <cstdint>
#include <functional>

#include "testgen/fuzz_case.hpp"

namespace cvmt {

/// Upper bound on predicate evaluations of one shrink (each costs one
/// oracle run in production, i.e. five small simulations).
inline constexpr int kShrinkMaxAttempts = 400;

struct ShrinkResult {
  FuzzCase minimized;
  int attempts = 0;   ///< predicate evaluations spent
  int accepted = 0;   ///< candidates that still failed (shrink steps taken)
};

/// Minimizes `failing` under `fails`. Precondition: fails(failing) is
/// true (checked; returns the input unchanged otherwise). The result
/// still fails, and no further candidate from one whole pass fails.
[[nodiscard]] ShrinkResult shrink_case(
    const FuzzCase& failing,
    const std::function<bool(const FuzzCase&)>& fails);

}  // namespace cvmt
