"""Tests of the host-speed reference that scales the end-to-end timings.

Run from the root of a checkout:  python3 -m unittest discover -s bench/tests
"""

import gc
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference  # noqa: E402


class ReferenceTest(unittest.TestCase):
    def test_slowdown_is_best_sample_over_calibrated(self):
        ref = reference.Reference()
        ref.best, ref.samples = 1.25 * reference.CALIBRATED_NS, 3
        self.assertAlmostEqual(ref.slowdown(), 1.25)

    def test_samples_keep_the_best(self):
        ref = reference.Reference()
        for _ in range(3):
            ref.sample()
        self.assertEqual(ref.samples, 3)
        self.assertTrue(0 < ref.best < math.inf)
        best = ref.best
        ref.sample()
        self.assertLessEqual(ref.best, best)

    def test_collector_state_is_restored(self):
        self.assertTrue(gc.isenabled())
        reference.Reference().sample()
        self.assertTrue(gc.isenabled())
        gc.disable()
        try:
            reference.Reference().sample()
            self.assertFalse(gc.isenabled())
        finally:
            gc.enable()

    def test_slowdown_needs_a_sample(self):
        with self.assertRaises(ValueError):
            reference.Reference().slowdown()


if __name__ == "__main__":
    unittest.main()
