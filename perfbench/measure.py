"""Pure measurement logic of the benchmark: order statistics, span self
time, failure accounting and the output-correctness gate.

Nothing here touches processes or the clock, so test_measure.py can pin
every rule on hand-made inputs.
"""

import hashlib
import math
import statistics

# Percentile levels considered for a timing's tail, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    return statistics.median(values)


def tail_percentile(values, min_beyond=10):
    """(level, value) of the highest percentile in TAIL_LEVELS that has at
    least `min_beyond` samples above its rank, or None when even the
    median has fewer (under 2 * min_beyond + 1 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    for level in TAIL_LEVELS:
        rank = max(1, math.ceil(level / 100.0 * n))
        if n - rank >= min_beyond:
            return level, ordered[rank - 1]
    return None


def quartile_spread(values):
    """(Q3 - Q1) / median, with the quartiles statistics.quantiles(n=4)
    gives; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span (same order): its duration minus the part of its interval
    that its direct children cover. Overlapping children count once, and
    a child's time outside the parent's interval is not subtracted."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append(span)
    result = []
    for span, kids in zip(spans, children):
        start, end = span["start_ns"], span["end_ns"]
        clipped = [(max(start, k["start_ns"]), min(end, k["end_ns"]))
                   for k in kids]
        covered = _covered([(a, b) for a, b in clipped if b > a])
        result.append(end - start - covered)
    return result


def layer_totals(spans):
    """{name: {"count", "total_ns", "self_ns"}} over every span."""
    totals = {}
    for span, self_ns in zip(spans, self_times(spans)):
        t = totals.setdefault(span["name"],
                              {"count": 0, "total_ns": 0, "self_ns": 0})
        t["count"] += 1
        t["total_ns"] += span["end_ns"] - span["start_ns"]
        t["self_ns"] += self_ns
    return totals


class Outcomes:
    """Operations attempted and failed, with the first few reasons."""

    MAX_REASONS = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.fail(reason, attempted=False)
        return ok

    def fail(self, reason, attempted=True):
        """Counts one failed operation; `attempted=False` when record()
        already counted the attempt."""
        if attempted:
            self.attempted += 1
        self.failed += 1
        if len(self.reasons) < self.MAX_REASONS:
            self.reasons.append(reason)

    @property
    def failed_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


def digest(data):
    return hashlib.sha256(data).hexdigest()


def check_output(data, expected_digest, what):
    """(ok, reason): whether `data` has the reference digest."""
    got = digest(data)
    if got == expected_digest:
        return True, ""
    return False, f"{what}: output digest {got[:16]} != reference " \
                  f"{expected_digest[:16]}"


def check_same(data, expected, what):
    """(ok, reason): whether two outputs are byte-equal."""
    if data == expected:
        return True, ""
    at = next((i for i, (a, b) in enumerate(zip(data, expected)) if a != b),
              min(len(data), len(expected)))
    return False, f"{what}: differs at byte {at} " \
                  f"({len(data)} vs {len(expected)} bytes)"
