"""Self-tests of the benchmark's own logic. Run from the repository root:

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import measure  # noqa: E402
import run  # noqa: E402
import serve_load  # noqa: E402


def span(name, start, end, parent=-1):
    return {"name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "request": -1}


class PercentileTest(unittest.TestCase):
    def test_no_tail_below_eleven_samples(self):
        self.assertIsNone(measure.tail_percentile(list(range(10))))

    def test_median_is_the_only_tail_for_small_counts(self):
        # 21 samples: the median's rank 11 leaves 10 beyond it; p75
        # (rank 16) would leave only 5.
        self.assertEqual(measure.tail_percentile(list(range(1, 22))),
                         (50.0, 11))

    def test_highest_level_with_ten_beyond(self):
        values = list(range(1, 1001))
        # p99 is rank 990 with exactly 10 beyond; p99.9 leaves 1.
        self.assertEqual(measure.tail_percentile(values), (99.0, 990))
        self.assertEqual(measure.tail_percentile(values[:200]), (95.0, 190))

    def test_order_of_input_does_not_matter(self):
        values = [5, 3, 9, 1, 7] * 10
        self.assertEqual(measure.tail_percentile(values),
                         measure.tail_percentile(sorted(values)))

    def test_quartile_spread_matches_statistics_quantiles(self):
        # quantiles(n=4) of 1..9 (exclusive method): 2.5, 5, 7.5.
        self.assertAlmostEqual(measure.quartile_spread(range(1, 10)), 1.0)
        self.assertEqual(measure.quartile_spread([4.0]), 0.0)
        self.assertEqual(measure.quartile_spread([2.0] * 10), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(measure.self_times([span("a", 10, 30)]), [20])

    def test_children_are_subtracted(self):
        spans = [span("p", 0, 100), span("c1", 10, 20, 0),
                 span("c2", 50, 80, 0)]
        self.assertEqual(measure.self_times(spans), [60, 10, 30])

    def test_overlapping_children_count_once(self):
        spans = [span("p", 0, 100), span("c1", 10, 50, 0),
                 span("c2", 40, 70, 0), span("c3", 45, 60, 0)]
        self.assertEqual(measure.self_times(spans)[0], 40)

    def test_child_outside_parent_is_clipped(self):
        spans = [span("p", 0, 100), span("c", 90, 130, 0)]
        self.assertEqual(measure.self_times(spans)[0], 90)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span("p", 0, 100), span("c", 0, 60, 0),
                 span("g", 10, 50, 1)]
        self.assertEqual(measure.self_times(spans), [40, 20, 40])

    def test_layer_totals(self):
        spans = [span("store", 0, 100), span("sim", 10, 90, 0),
                 span("store", 100, 150), span("sim", 110, 140, 2)]
        totals = measure.layer_totals(spans)
        self.assertEqual(totals["store"],
                         {"count": 2, "total_ns": 150, "self_ns": 40})
        self.assertEqual(totals["sim"]["total_ns"], 110)


class OutcomesTest(unittest.TestCase):
    def test_failed_ratio_counts_failures_over_attempts(self):
        o = measure.Outcomes()
        for ok in (True, True, False, True):
            o.record(ok, "bad")
        o.fail("lost response")
        self.assertEqual((o.attempted, o.failed), (5, 2))
        self.assertAlmostEqual(o.failed_ratio, 0.4)
        self.assertEqual(o.reasons, ["bad", "lost response"])

    def test_empty_is_zero(self):
        self.assertEqual(measure.Outcomes().failed_ratio, 0.0)

    def test_result_line_is_incorrect_on_any_failure(self):
        o = measure.Outcomes()
        o.record(True)
        o.record(False, "digest")
        line = run.final_line(o, {})
        self.assertIn('"correct": false', line)
        self.assertIn('"failed": 1', line)


class GateTest(unittest.TestCase):
    OUTPUT = b'{"id":"fig10","ok":true,"sections":[{"rows":[[1.25]]}]}\n'

    def test_reference_digest_passes(self):
        ok, _ = measure.check_output(self.OUTPUT,
                                     measure.digest(self.OUTPUT), "x")
        self.assertTrue(ok)

    def test_one_byte_change_is_caught(self):
        ref = measure.digest(self.OUTPUT)
        for i in range(len(self.OUTPUT)):
            changed = bytearray(self.OUTPUT)
            changed[i] ^= 0x01
            ok, reason = measure.check_output(bytes(changed), ref, "x")
            self.assertFalse(ok, "byte %d" % i)
            self.assertIn("digest", reason)

    def test_merge_equality_names_the_first_differing_byte(self):
        changed = self.OUTPUT.replace(b"1.25", b"1.24")
        ok, reason = measure.check_same(changed, self.OUTPUT, "merge")
        self.assertFalse(ok)
        self.assertIn("byte %d" % (self.OUTPUT.index(b"1.25") + 3), reason)
        self.assertFalse(measure.check_same(self.OUTPUT[:-1], self.OUTPUT,
                                            "merge")[0])


class ResponseCheckTest(unittest.TestCase):
    SUFFIXES = [b'"ok":true,"result":{"ipc":1.5}}']

    def test_matching_response(self):
        inflight = {7: (0, 123)}
        line = b'{"id":7,' + self.SUFFIXES[0]
        self.assertEqual(
            serve_load.check_response(line, inflight, self.SUFFIXES),
            (7, (0, 123), ""))
        self.assertEqual(inflight, {})

    def test_one_byte_change_in_a_response(self):
        line = bytearray(b'{"id":7,' + self.SUFFIXES[0])
        line[-4] ^= 0x01
        _, entry, reason = serve_load.check_response(
            bytes(line), {7: (0, 0)}, self.SUFFIXES)
        self.assertIsNotNone(entry)
        self.assertIn("differs", reason)

    def test_error_duplicate_and_garbled_responses(self):
        inflight = {7: (0, 0)}
        err = b'{"id":7,"ok":false,"error":{"code":"overloaded"}}'
        self.assertIn("differs", serve_load.check_response(
            err, inflight, self.SUFFIXES)[2])
        dup = b'{"id":7,' + self.SUFFIXES[0]
        _, entry, reason = serve_load.check_response(dup, inflight,
                                                     self.SUFFIXES)
        self.assertIsNone(entry)
        self.assertIn("duplicated", reason)
        self.assertIn("leading id", serve_load.check_response(
            b"garbage", inflight, self.SUFFIXES)[2])

    def test_pool_is_seeded_and_distinct(self):
        schemes = ["1S", "2SC3", "3CCC"]
        benchmarks = ["a", "b", "c", "d", "e", "f"]
        first = serve_load.make_pool(3, schemes, benchmarks)
        self.assertEqual(first, serve_load.make_pool(3, schemes, benchmarks))
        self.assertNotEqual(first,
                            serve_load.make_pool(4, schemes, benchmarks))
        self.assertEqual(len(set(first[0])), serve_load.POOL_SIZE)


class ProvenanceTest(unittest.TestCase):
    HEAD = "a268e08dc7ee80e7e3810ef33da1992a4a0a1e6f"

    @staticmethod
    def version(describe, build_type="Release"):
        return run.parse_version("cvmt %s (gcc 12.2.0, %s)\n" %
                                 (describe, build_type))

    def test_matching_commit_passes(self):
        for describe in ("a268e08", "a268e08-dirty", "v1-3-ga268e08"):
            self.assertEqual(
                run.check_provenance(self.version(describe), self.HEAD), [])

    def test_other_commit_or_build_type_fails(self):
        self.assertTrue(run.check_provenance(self.version("b24ffae"),
                                             self.HEAD))
        self.assertTrue(run.check_provenance(
            self.version("a268e08", "Debug"), self.HEAD))

    def test_non_git_checkout_needs_unknown(self):
        self.assertEqual(
            run.check_provenance(self.version("unknown"), None), [])
        self.assertTrue(run.check_provenance(self.version("a268e08"), None))

    def test_cvmt_variables_are_refused(self):
        os.environ["CVMT_WORKERS"] = "1"
        try:
            with self.assertRaises(run.BenchError):
                run.guard_environment()
        finally:
            del os.environ["CVMT_WORKERS"]


if __name__ == "__main__":
    unittest.main()
