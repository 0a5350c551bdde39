"""Self-test of the benchmark's arithmetic and tracer.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Covers the tail rule, the geometric mean, the quartile spread, failure
counting and fail_frac, the speed normalization and its probe, span self time (including children that overlap because they ran on
different threads), and that the tracer restores everything it patches.
"""
import random
import statistics
import sys
import threading
import time
import types
import unittest
from pathlib import Path

import numpy as np

import calibrate
import stats
from spans import Tracer, ancestors_named, roots, self_times, summarize

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))
from workloads import Recorder  # noqa: E402  (needs almlab on the path)


def reference_self_times(start, end, parent):
    """Plain-loop self time: duration minus the union of child intervals."""
    out = []
    for i in range(len(start)):
        kids = sorted((start[j], end[j]) for j in range(len(start)) if parent[j] == i)
        covered, reach = 0.0, -float("inf")
        for s, e in kids:
            lo = max(s, reach)
            if e > lo:
                covered += e - lo
            reach = max(reach, e)
        out.append(end[i] - start[i] - covered)
    return out


class PercentileAndTail(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        xs = list(range(100))  # value == rank
        pct, value = stats.tail(xs)
        self.assertEqual(value, 89)
        self.assertEqual(sum(1 for x in xs if x > value), 10)
        self.assertAlmostEqual(pct, 100.0 * 89 / 99)

    def test_tail_is_the_percentile_it_names(self):
        rng = random.Random(3)
        for n in (11, 12, 37, 250):
            xs = [rng.random() for _ in range(n)]
            pct, value = stats.tail(xs)
            self.assertAlmostEqual(float(np.percentile(xs, pct)), value, places=12)
            self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_tail_with_exactly_eleven_samples_is_the_minimum(self):
        xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0]
        self.assertEqual(stats.tail(xs), (0.0, 1.0))

    def test_tail_unresolved_below_eleven_samples(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (100.0, 3.0))

    def test_tail_ignores_input_order(self):
        xs = [float(i) for i in range(40)]
        shuffled = xs[:]
        random.Random(1).shuffle(shuffled)
        self.assertEqual(stats.tail(xs), stats.tail(shuffled))

    def test_gmean(self):
        self.assertAlmostEqual(stats.gmean([4.0]), 4.0)
        self.assertAlmostEqual(stats.gmean([1.0, 4.0, 16.0]), 4.0)

    def test_quartile_spread(self):
        self.assertAlmostEqual(stats.quartile_spread([1.0] * 10), 0.0)
        vals = [float(v) for v in range(1, 11)]
        q1, q2, q3 = 2.75, 5.5, 8.25  # statistics.quantiles(range(1, 11), n=4)
        self.assertAlmostEqual(stats.quartile_spread(vals), (q3 - q1) / q2)


class FailFrac(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(stats.fail_frac(0, 12), 0.0)
        self.assertEqual(stats.fail_frac(3, 12), 0.25)

    def test_nothing_attempted_counts_as_failed(self):
        self.assertEqual(stats.fail_frac(0, 0), 1.0)


class FailureCounting(unittest.TestCase):
    def test_raised_and_rejected_operations_count_as_failed(self):
        rec = Recorder()
        rec.op("op", "good", lambda: 1, lambda r: [])
        rec.op("op", "wrong", lambda: 2, lambda r: ["result 2 is wrong"])
        rec.op("op2", "raises", lambda: 1 / 0, lambda r: [])
        self.assertEqual((rec.attempted, rec.failed), (3, 2))
        self.assertAlmostEqual(stats.fail_frac(rec.failed, rec.attempted), 2 / 3)
        # a raising operation leaves no timing sample behind
        self.assertEqual((len(rec.samples["op"]), len(rec.samples["op2"])), (2, 0))
        self.assertEqual(len(rec.problems), 2)


class SpeedNormalization(unittest.TestCase):
    def test_reference_speed_keeps_the_time(self):
        self.assertAlmostEqual(calibrate.normalize(2.0, [calibrate.REF_S] * 3), 2.0)

    def test_slower_kernel_scales_the_time_down(self):
        # kernel at 1.5x and 2.5x the reference: mean 2x, so half the time
        ks = [1.5 * calibrate.REF_S, 2.5 * calibrate.REF_S]
        self.assertAlmostEqual(calibrate.normalize(3.0, ks), 1.5)

    def test_probe_subtracts_its_own_samples(self):
        with calibrate.SpeedProbe(interval=0.005) as probe:
            with probe.measure() as m:
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < 0.1:
                    pass
            in_op = m.kernel_times[1:-1]
            self.assertGreater(len(in_op), 0)
            # the loop spins for 0.1 s of wall time, the handler's included:
            # the net time is what is left once the in-op samples are taken off
            self.assertLess(m.net, 0.1)
            self.assertGreaterEqual(m.net + sum(in_op), 0.1)
            self.assertAlmostEqual(m.normalized, calibrate.normalize(m.net, m.kernel_times))

    def test_no_samples_inside_a_multithreaded_operation(self):
        with calibrate.SpeedProbe(interval=0.005) as probe:
            stop = threading.Event()
            worker = threading.Thread(target=stop.wait)
            worker.start()
            try:
                with probe.measure() as m:
                    time.sleep(0.05)
            finally:
                stop.set()
                worker.join()
        self.assertEqual(len(m.kernel_times), 2)  # before and after only


class RecorderWithProbe(unittest.TestCase):
    def test_samples_are_normalized_and_raw_kept(self):
        with calibrate.SpeedProbe() as probe:
            rec = Recorder(probe=probe)
            rec.op("op", "sleep", lambda: time.sleep(0.03), lambda r: [])
        self.assertGreater(rec.raw["op"][0], 0.02)
        self.assertGreaterEqual(len(rec.kernel), 2)
        self.assertAlmostEqual(rec.samples["op"][0], rec.raw["op"][0] * calibrate.REF_S
                               / statistics.fmean(rec.kernel))


class SelfTime(unittest.TestCase):
    def test_nested_sequential_children(self):
        # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6]
        start = [0.0, 1.0, 4.0, 5.0]
        end = [10.0, 3.0, 8.0, 6.0]
        parent = [-1, 0, 0, 2]
        np.testing.assert_allclose(self_times(start, end, parent), [4.0, 2.0, 3.0, 1.0])

    def test_overlapping_children_count_once(self):
        # two worker-thread children overlap on [3, 5]; covered is [2, 7]
        start = [0.0, 2.0, 3.0]
        end = [10.0, 5.0, 7.0]
        parent = [-1, 0, 0]
        np.testing.assert_allclose(self_times(start, end, parent), [5.0, 3.0, 4.0])

    def test_matches_plain_loop_on_random_trees(self):
        rng = random.Random(7)
        for _ in range(20):
            start, end, parent = [0.0], [100.0], [-1]
            for i in range(1, 40):
                p = rng.randrange(i)
                a = rng.uniform(start[p], end[p])
                b = rng.uniform(a, end[p])
                start.append(a)
                end.append(b)
                parent.append(p)
            np.testing.assert_allclose(self_times(start, end, parent),
                                       reference_self_times(start, end, parent), atol=1e-9)

    def test_roots_and_ancestors(self):
        parent = np.array([-1, 0, 1, 2, -1, 4])
        name = np.array([0, 1, 2, 3, 0, 3])
        np.testing.assert_array_equal(roots(parent), [0, 0, 0, 0, 4, 4])
        np.testing.assert_array_equal(ancestors_named(name, parent, 1),
                                      [False, False, True, True, False, False])


class TracerPatching(unittest.TestCase):
    def setUp(self):
        # a two-module package where one module imports the other's function by name
        self.pkg = types.ModuleType("fakepkg")
        self.a = types.ModuleType("fakepkg.a")
        self.b = types.ModuleType("fakepkg.b")

        def leaf(x):
            return x + 1

        def outer(x):
            return self.b.leaf(x) * 2

        class Thing:
            def method(self, x):
                return x

        self.a.leaf = leaf
        self.b.leaf = leaf  # "from .a import leaf"
        self.b.outer = outer
        self.a.Thing = Thing
        self.originals = (leaf, outer, Thing.__dict__["method"])
        for name, mod in (("fakepkg", self.pkg), ("fakepkg.a", self.a), ("fakepkg.b", self.b)):
            sys.modules[name] = mod

    def tearDown(self):
        for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            sys.modules.pop(name, None)

    def test_patches_every_binding_and_restores(self):
        tracer = Tracer("fakepkg")
        tracer.patch_function(self.a, "leaf", "a.leaf")
        tracer.patch_function(self.b, "outer", "b.outer")
        tracer.patch_method(self.a.Thing, "method", "a.Thing.method")
        self.assertIsNot(self.b.leaf, self.originals[0])
        with tracer.span("root"):
            self.assertEqual(self.b.outer(1), 4)
            self.assertEqual(self.a.Thing().method(5), 5)
        tracer.restore()
        self.assertIs(self.a.leaf, self.originals[0])
        self.assertIs(self.b.leaf, self.originals[0])
        self.assertIs(self.b.outer, self.originals[1])
        self.assertIs(self.a.Thing.__dict__["method"], self.originals[2])
        table, spans = summarize(tracer)
        calls = {k: v[0] for k, v in table["root"].items()}
        self.assertEqual(calls, {"root": 1, "b.outer": 1, "a.leaf": 1, "a.Thing.method": 1})
        # the leaf's parent is the outer call, the outer call's is the root
        names = [tracer.names[i] for i in spans["name"]]
        parent_of = {names[i]: names[p] if p >= 0 else None for i, p in enumerate(spans["parent"])}
        self.assertEqual(parent_of["a.leaf"], "b.outer")
        self.assertEqual(parent_of["b.outer"], "root")

    def test_generator_span_covers_its_consumption(self):
        def gen():
            yield self.b.leaf(1)
            yield self.b.leaf(2)

        tracer = Tracer("fakepkg")
        tracer.patch_function(self.a, "leaf", "a.leaf")
        checks = {"g": gen}
        tracer.patch_item(checks, "g", "check.g")
        with tracer.span("root"):
            self.assertEqual(list(checks["g"]()), [2, 3])
        tracer.restore()
        self.assertIs(checks["g"], gen)
        table, spans = summarize(tracer)
        self.assertEqual(table["root"]["check.g"][0], 1)
        names = [tracer.names[i] for i in spans["name"]]
        leaf_parents = {names[spans["parent"][i]] for i, n in enumerate(names) if n == "a.leaf"}
        self.assertEqual(leaf_parents, {"check.g"})

    def test_worker_thread_spans_hang_under_the_main_threads_open_span(self):
        tracer = Tracer("fakepkg")
        tracer.patch_function(self.a, "leaf", "a.leaf")
        with tracer.span("root"):
            worker = threading.Thread(target=self.b.leaf, args=(1,))
            worker.start()
            worker.join(timeout=10)
        tracer.restore()
        self.assertFalse(worker.is_alive())
        table, _ = summarize(tracer)
        self.assertEqual(table["root"]["a.leaf"][0], 1)


if __name__ == "__main__":
    unittest.main()
