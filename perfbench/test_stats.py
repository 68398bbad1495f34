"""Tests of perfbench/stats.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import statistics
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        xs = list(range(1, 1001))  # 1..1000
        self.assertEqual(stats.percentile(xs, 99.0), 990)  # 10 beyond
        self.assertIsNone(stats.percentile(xs[:999], 99.0))  # only 9 beyond

    def test_median_of_small_sets(self):
        self.assertEqual(stats.percentile(list(range(1, 21)), 50.0), 10)
        self.assertIsNone(stats.percentile(list(range(1, 20)), 50.0))
        self.assertIsNone(stats.percentile([], 50.0))

    def test_infinite_samples_are_misses(self):
        xs = [1.0] * 985 + [math.inf] * 15
        self.assertEqual(stats.percentile(xs, 99.0), math.inf)
        xs = [1.0] * 995 + [math.inf] * 5
        self.assertEqual(stats.percentile(xs, 99.0), 1.0)

    def test_highest_percentile(self):
        self.assertEqual(stats.highest_percentile(list(range(2000)))[0], 99.0)
        self.assertEqual(stats.highest_percentile(list(range(200)))[0], 95.0)
        self.assertEqual(stats.highest_percentile(list(range(40)))[0], 75.0)
        self.assertEqual(stats.highest_percentile([1.0] * 25), (50.0, 1.0))
        self.assertEqual(stats.highest_percentile([1.0] * 5), (None, None))


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.spread(xs), (q[2] - q[0]) / statistics.median(xs))

    def test_single_sample(self):
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0))
        self.assertEqual(stats.spread([2.0]), 0.0)

    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1.0, 4.0, 16.0]), 4.0)
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])


class OpenLoopTest(unittest.TestCase):
    def test_steady_backlog(self):
        self.assertFalse(stats.backlog_grows([3, 5, 2, 4, 6, 3, 2, 5] * 50))

    def test_growing_backlog(self):
        self.assertTrue(stats.backlog_grows(list(range(400))))

    def test_small_noise_is_not_growth(self):
        self.assertFalse(stats.backlog_grows([0] * 100 + [3] * 100))

    def test_max_rate(self):
        ok = [0.5] * 2000
        slow = [0.5] * 1900 + [9.0] * 100
        failed = [0.5] * 1970 + [math.inf] * 30
        steady = [2] * 1000
        rungs = [
            (500, ok, steady),
            (1000, ok, steady),
            (2000, slow, steady),      # p99 over the limit
            (3000, ok, list(range(1000))),  # backlog grows
            (4000, failed, steady),    # failures count as misses
        ]
        self.assertEqual(stats.max_rate(rungs, 5.0), 1000)
        self.assertIsNone(stats.max_rate([(500, slow, steady)], 5.0))

    def test_max_rate_needs_enough_samples(self):
        self.assertIsNone(stats.max_rate([(500, [0.5] * 500, [1] * 500)], 5.0))


if __name__ == "__main__":
    unittest.main()
