"""Unit tests for perfbench's statistics: python3 -m unittest discover perfbench"""

import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_endpoints_and_median(self):
        xs = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(stats.percentile(xs, 0), 1.0)
        self.assertEqual(stats.percentile(xs, 100), 5.0)
        self.assertEqual(stats.percentile(xs, 50), statistics.median(xs))

    def test_interpolates_between_ranks(self):
        # rank = 0.9 * 9 = 8.1 -> 9 + 0.1 * (10 - 9)
        self.assertAlmostEqual(stats.percentile(range(1, 11), 90), 9.1)

    def test_single_sample(self):
        self.assertEqual(stats.percentile([7.5], 99.9), 7.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailPercentileTest(unittest.TestCase):
    def test_leaves_at_least_ten_beyond(self):
        for n in (20, 40, 60, 100, 200, 500, 1000, 1100, 2000, 20000):
            p = stats.tail_percentile(n)
            self.assertGreaterEqual(n * (100 - p) / 100, 10 - 1e-9, (n, p))

    def test_picks_the_highest_rung(self):
        self.assertEqual(stats.tail_percentile(60), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)   # exactly 10
        self.assertEqual(stats.tail_percentile(999), 98.0)    # 9.99 < 10
        self.assertEqual(stats.tail_percentile(1100), 99.0)
        self.assertEqual(stats.tail_percentile(20000), 99.9)

    def test_small_counts_fall_back_to_the_median(self):
        self.assertEqual(stats.tail_percentile(5), 50.0)


class SlicedTailTest(unittest.TestCase):
    def test_one_stalled_slice_does_not_move_the_median(self):
        calm = [1.0] * 90 + [2.0] * 10
        stalled = [1.0] * 90 + [50.0] * 10
        tail, p = stats.sliced_tail(calm + stalled + calm, 100)
        self.assertEqual(p, 90.0)
        self.assertAlmostEqual(tail, stats.percentile(calm, 90))

    def test_partial_last_slice_is_dropped(self):
        tail, _ = stats.sliced_tail([1.0] * 100 + [99.0] * 30, 100)
        self.assertEqual(tail, 1.0)

    def test_short_run_is_one_slice(self):
        xs = [float(i) for i in range(20)]
        tail, p = stats.sliced_tail(xs, 60)
        self.assertEqual(p, 75.0)
        self.assertEqual(tail, stats.percentile(xs, 75))


class SubtractionTest(unittest.TestCase):
    def test_overhead_is_latency_outside_the_worker(self):
        self.assertAlmostEqual(stats.overhead_ms(12.5, 2.0, 9.0), 1.5)

    def test_overhead_is_not_clamped(self):
        # Result frames round queue_ms/run_ms to six significant digits, so
        # a tiny negative remainder is possible; it is reported as is.
        self.assertAlmostEqual(stats.overhead_ms(1.0, 0.5, 0.6), -0.1)

    def test_self_time_subtracts_children_once(self):
        self.assertEqual(stats.self_time((0, 10), []), 10)
        self.assertEqual(stats.self_time((0, 10), [(1, 3), (5, 9)]), 4)
        # overlapping children cover 1..6 once
        self.assertEqual(stats.self_time((0, 10), [(1, 4), (2, 6)]), 5)
        # children spilling outside the parent count only inside it
        self.assertEqual(stats.self_time((0, 10), [(-5, 2), (8, 15)]), 6)


if __name__ == "__main__":
    unittest.main()
