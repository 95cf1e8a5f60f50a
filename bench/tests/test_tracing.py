"""Tests of the benchmark's span arithmetic and of the outside-in tracer.

Run from the root of a checkout:  python3 -m unittest discover -s bench/tests
"""

import os
import sys
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import tracing  # noqa: E402
from tropmono import cli, linalg, poly  # noqa: E402


def synthetic_tracer() -> tracing.Tracer:
    """Nested spans on a clock that ticks by known amounts:

        cli.run            [ 10, 110)
          simplex.a        [ 20,  60)
            poly.mul       [ 30,  45)
            poly.mul       [ 45,  50)
          linalg.det       [ 70, 100)
        cli.run            [130, 170)
    """
    ticks = iter([10, 20, 30, 45, 45, 50, 60, 70, 100, 110, 130, 170])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    root = tracer.open("cli.run")
    a = tracer.open("simplex.SimplexForm.a")
    for _ in range(2):
        tracer.close(tracer.open("poly.Poly.__mul__"))
    tracer.close(a)
    tracer.close(tracer.open("linalg.det"))
    tracer.close(root)
    tracer.close(tracer.open("cli.run"))
    return tracer


class SpanArithmetic(unittest.TestCase):
    def test_self_times_subtract_covered_children(self):
        t = synthetic_tracer()
        self.assertEqual(tracing.self_times(t.start, t.end, t.parent),
                         [100 - 40 - 30, 40 - 20, 15, 5, 30, 40])

    def test_layer_self_times_and_outside_add_up_to_wall_time(self):
        t = synthetic_tracer()
        t0, t1 = 0, 200
        busy, own = tracing.layer_times(t)
        outside = tracing.outside_time(t0, t1, t.start, t.end, t.parent)
        self.assertEqual(outside, 200 - 100 - 40)
        self.assertEqual(sum(own) + outside, t1 - t0)
        layer = dict(zip(tracing.LAYERS, zip(busy, own)))
        self.assertEqual(layer["cli"], (140, 70))
        self.assertEqual(layer["simplex"], (40, 20))
        self.assertEqual(layer["poly"], (20, 20))
        self.assertEqual(layer["linalg"], (30, 30))

    def test_layer_metrics_and_overhead_ratio(self):
        values = tracing.layer_metrics(synthetic_tracer(), 100, 0, 200)
        self.assertEqual(values["trace.overhead_ratio"], 2.0)
        self.assertEqual(values["poly.mul.calls"], 2)
        self.assertEqual(values["poly.mul.busy_s"], 20e-9)
        self.assertEqual(values["linalg.det.calls"], 1)
        self.assertEqual(values["linalg.eliminations"], 1)
        self.assertEqual(values["simplex.self_s"], 20e-9)

    def test_children_overlapping_each_other_are_counted_once(self):
        self.assertEqual(tracing.self_times([0, 10, 20], [100, 40, 50], [-1, 0, 0]),
                         [100 - 40, 30, 30])


class TracerOnTheCli(unittest.TestCase):
    ARGV = ["check", "superform", "--n", "2", "--cases", "1", "--seed", "3"]

    def traced_run(self):
        modules = {name.split(".", 1)[1]: module for name, module in sys.modules.items()
                   if name.startswith("tropmono.")}
        tracer = tracing.Tracer()
        tracer.install(modules)
        try:
            t0 = tracer.clock()
            code, text = cli.run(self.ARGV)
            t1 = tracer.clock()
        finally:
            tracer.uninstall()
        return tracer, t0, t1, code, text

    def test_exact_time_identity_on_a_real_op(self):
        tracer, t0, t1, code, text = self.traced_run()
        self.assertEqual(code, 0)
        self.assertEqual((code, text), cli.run(self.ARGV))
        _, own = tracing.layer_times(tracer)
        outside = tracing.outside_time(t0, t1, tracer.start, tracer.end, tracer.parent)
        self.assertEqual(sum(own) + outside, t1 - t0)
        names = set(tracer.names)
        self.assertIn("cli.run", names)
        self.assertIn("forms.Superform.wedge", names)
        self.assertIn("randgen.rand_superform", names)
        self.assertGreater(tracer.counts["poly.Poly.__new__"], 0)

    def test_call_counts_repeat_and_uninstall_restores(self):
        originals = (cli.run, linalg.det, poly.Poly.__mul__, poly.Poly.const)
        first = self.traced_run()[0]
        second = self.traced_run()[0]
        calls = [[t.names[k] for k in t.name] for t in (first, second)]
        self.assertEqual(calls[0], calls[1])
        self.assertEqual(first.counts, second.counts)
        self.assertEqual(originals, (cli.run, linalg.det, poly.Poly.__mul__,
                                     poly.Poly.const))
        self.assertEqual(poly.Poly(2, {(1, 0): 3}) * poly.Poly.const(2, 2),
                         poly.Poly(2, {(1, 0): 6}))

    def test_every_metric_is_reported(self):
        tracer, t0, t1, _, _ = self.traced_run()
        values = tracing.layer_metrics(tracer, t1 - t0, t0, t1)
        self.assertEqual(sorted(values), sorted(tracing.metric_names()))


if __name__ == "__main__":
    unittest.main()
