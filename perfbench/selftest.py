"""Tests of the benchmark's own checks, against cases worked by hand.

    python3 perfbench/selftest.py

The file name keeps the program's test suite from collecting these.
"""

from __future__ import annotations

import sys
import threading
import unittest
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import corpus_counts  # noqa: E402
import harness  # noqa: E402
import oracles  # noqa: E402
import wl_cli  # noqa: E402

# (g, n) = (2, 2) has the pairs (0,{1,2}), (1,{1}), (1,{1,2}); masks 0b11, 0b01, 0b11.
P0_12, P1_1, P1_12 = (0, 3), (1, 1), (1, 3)


class ClassChecks(unittest.TestCase):
    def test_pairs(self):
        self.assertEqual(oracles.admissible_pairs(2, 2), [P0_12, P1_1, P1_12])
        self.assertEqual(oracles.admissible_pairs(1, 2), [(0, 3)])
        self.assertEqual(len(oracles.admissible_pairs(3, 3)), 12)
        self.assertEqual(len(oracles.admissible_pairs(4, 5)), 74)
        self.assertEqual(len(oracles.admissible_pairs(5, 7)), 376)

    def test_delta_is_the_sum_of_unit_steps(self):
        # Crossing (0,{1,2}) from label 0 to 2 adds (1-0) + (2-0) = 3.
        w = oracles.wall_crossing(1, 2, {(0, 3): 0}, {(0, 3): 2})
        self.assertEqual(w, {("delta", 0, 3): F(3)})
        # Backwards from 2 to -1 removes (0-0) + (1-0) + (2-0) = 3.
        self.assertEqual(oracles.wall_crossing(1, 2, {(0, 3): 2}, {(0, 3): -1}), {("delta", 0, 3): F(-3)})
        # At (1,{1}) from 3 down to 1: -(2-1) - (3-1) = -3.
        self.assertEqual(oracles.wall_crossing(2, 2, {P1_1: 3}, {P1_1: 1}), {("delta", 1, 1): F(-3)})

    def test_telescoping(self):
        a, b, c = {(0, 3): 0}, {(0, 3): 2}, {(0, 3): -1}
        lhs = oracles.add(oracles.wall_crossing(1, 2, a, b), oracles.wall_crossing(1, 2, b, c))
        self.assertEqual(lhs, oracles.wall_crossing(1, 2, a, c))
        self.assertEqual(lhs, {})  # 3 - 3 = 0 and W(0, -1) = -(0 - 0) = 0

    def test_labels_are_nearest_integers(self):
        coords = {P0_12: F(7, 10), P1_1: F(-7, 10), P1_12: F(5, 4)}
        self.assertEqual(oracles.label_of(coords), {P0_12: 1, P1_1: -1, P1_12: 1})
        self.assertTrue(oracles.is_half_odd(F(-3, 2)))
        self.assertFalse(oracles.is_half_odd(F(1, 3)))

    def test_pullback_at_degrees_has_no_boundary_terms(self):
        # degrees (3, -2): psi_1 = C(4,2) = 6, psi_2 = C(-1,2) = 1.
        self.assertEqual(
            oracles.pullback_at_degrees(2, (3, -2)),
            {("lam",): F(-1), ("psi", 1): F(6), ("psi", 2): F(1)},
        )
        self.assertEqual(oracles.degree_label(2, 2, (3, -2)), {P0_12: 1, P1_1: 3, P1_12: 1})

    def test_stable_pairs_and_hain(self):
        # -C(d_S - i + 1, 2): (0,{1,2}) d_S=1 gives -1, (1,{1}) d_S=3 gives -3, (1,{1,2}) d_S=1 gives 0.
        sp = oracles.stable_pairs(2, 2, (3, -2))
        self.assertEqual(
            sp,
            {("lam",): F(-1), ("psi", 1): F(6), ("psi", 2): F(1), ("delta", 0, 3): F(-1), ("delta", 1, 1): F(-3)},
        )
        hain = oracles.add(sp, {("irr",): F(1, 8)})
        self.assertEqual(oracles.add(hain, sp, F(-1)), {("irr",): F(1, 8)})

    def test_mueller_discrepancy_set(self):
        # (3,3), degrees (1,2,-1): S = {1} has d_S = 1 < i for i = 2, 3; S = {1,2} has d_S = 3.
        self.assertEqual(oracles.mueller_t(3, 3, (1, 2, -1)), [(2, 1), (3, 1)])
        self.assertEqual(oracles.mueller_t(2, 2, (3, -2)), [])

    def test_theta_pullback_matches_the_program(self):
        from jacwall import phi_from_label, PolytopeLabel, admissible_pairs, theta_pullback
        from wl_classes import class_dict

        label = dict(zip(admissible_pairs(2, 2), (0, 1, 1)))
        cls = class_dict(theta_pullback(phi_from_label(PolytopeLabel(2, 2, label)), (3, -2)))
        own = oracles.pullback(2, 2, {P0_12: F(0), P1_1: F(1), P1_12: F(1)}, (3, -2))
        self.assertEqual(cls, own)


class GraphChecks(unittest.TestCase):
    # v1 -- v2 -- v3, genera 1, 0, 1, a loop at v2, marking 1 on v1 and 2 on v3: genus 3.
    genera = {"v1": 1, "v2": 0, "v3": 1}
    loops = {"v1": 0, "v2": 1, "v3": 0}
    edges = [("v1", "v2"), ("v2", "v3")]
    markings = {1: "v1", 2: "v3"}

    def test_edge_sides(self):
        parent, order, sides = oracles.edge_sides(self.genera, self.loops, self.markings, self.edges)
        self.assertEqual(order, ["v1", "v2", "v3"])
        # Cutting v1-v2 leaves v1 (genus 1, marking 1); cutting v2-v3 leaves v1, v2 (genus 2).
        self.assertEqual(sides, [("v1", "v2", (1, 1)), ("v2", "v3", (2, 1))])

    def test_subtree_sums(self):
        parent, order = oracles.rooted(["v1", "v2", "v3"], self.edges, "v1")
        sums = oracles.subtree_sums(parent, order, {"v1": 1, "v2": 2, "v3": 4}.__getitem__)
        self.assertEqual(sums, {"v1": 7, "v2": 6, "v3": 4})

    def test_stability(self):
        self.assertTrue(oracles.is_stable_tree(self.genera, self.loops, self.markings, self.edges))
        self.assertFalse(oracles.is_stable_tree(self.genera, {"v1": 0, "v2": 0, "v3": 0}, self.markings, self.edges))

    def test_moved_degree_fails(self):
        from jacwall import MarkedGraph, StabilityParameter, admissible_pairs, extend_to_graph, stable_multidegree
        from wl_trees import Trees

        G = MarkedGraph(self.genera, self.edges + [("v2", "v2")], self.markings)
        coords = {p: F(p.i) + F(1, 10) for p in admissible_pairs(3, 2)}
        pG = extend_to_graph(StabilityParameter(3, 2, coords), G)
        degree = stable_multidegree(pG)
        data = {"edges": self.edges, "sample": [0]}
        self.assertEqual(Trees._check_moved(sys.modules["jacwall"], data, G, pG, degree), [])

    def test_canonical_form(self):
        # The same decorated path labelled two ways, and one with the loop moved to a leaf.
        a = oracles.canonical_form(3, [(0, 1), (1, 2)], (1, 0, 1), (0, 1, 0), (0, 2))
        b = oracles.canonical_form(3, [(2, 1), (1, 0)], (1, 0, 1), (0, 1, 0), (2, 0))
        c = oracles.canonical_form(3, [(0, 1), (1, 2)], (1, 0, 1), (1, 0, 0), (0, 2))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_corpus_counts(self):
        # (1,2): one vertex of genus 1, or of genus 0 with a loop; with two vertices the
        # genus-free one needs both markings, and the other carries genus 1 or a loop.
        self.assertEqual(corpus_counts.count(1, 2, 1), 2)
        self.assertEqual(corpus_counts.count(1, 2, 2), 2)
        self.assertEqual(len(corpus_counts.tree_shapes(5)), 3)
        self.assertEqual(len(corpus_counts.tree_shapes(4)), 2)


class CliChecks(unittest.TestCase):
    def test_read_class(self):
        obj = {"g": 2, "n": 2, "lambda": "-1", "psi": {"1": "6", "2": "1"}, "delta_irr": "1/8",
               "delta": [{"i": 1, "S": [1], "c": "-3"}]}
        self.assertEqual(
            wl_cli.read_class(obj),
            {("lam",): F(-1), ("psi", 1): F(6), ("psi", 2): F(1), ("irr",): F(1, 8), ("delta", 1, 1): F(-3)},
        )

    def test_polytope_output(self):
        # jacwall polytope --g 2 --n 2 --from-degrees 3,-2: labels 1, 3, 1; neither flat nor reduced.
        obj = {"label": [{"i": 0, "S": [1, 2], "d": 1}, {"i": 1, "S": [1], "d": 3}, {"i": 1, "S": [1, 2], "d": 1}],
               "nondegenerate": True, "theta_flat": False, "theta_reduced": False}
        own = oracles.degree_label(2, 2, (3, -2))
        self.assertTrue(wl_cli.Cli._check_polytope(obj, own))
        self.assertFalse(wl_cli.Cli._check_polytope(dict(obj, theta_flat=True), own))


class Timing(unittest.TestCase):
    def test_guard_refuses_a_tracer(self):
        sys.settrace(lambda *a: None)
        try:
            with self.assertRaises(harness.Refused):
                harness.guard()
        finally:
            sys.settrace(None)

    def test_guard_refuses_a_second_thread(self):
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            with self.assertRaises(harness.Refused):
                harness.guard()
        finally:
            stop.set()
            worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        harness.guard()

    def test_factor_averages_the_samples_around_a_segment(self):
        sampler = harness.Sampler()
        nominal = harness.NOMINAL_KERNEL_S
        # Handler runs at 1.0, 1.1 and 5.0 s, each taking 2 ms, with kernels of 1x, 3x and 2x nominal.
        sampler.starts = [1.0, 1.1, 5.0]
        sampler.handled = [(1.0, 1.002), (1.1, 1.102), (5.0, 5.002)]
        sampler.kernels = [nominal, 3 * nominal, 2 * nominal]
        self.assertAlmostEqual(sampler.factor(1.01, 1.09), 0.5)  # both samples within the window
        self.assertAlmostEqual(sampler.factor(4.99, 5.01), 0.5)
        self.assertAlmostEqual(sampler.factor(3.0, 3.01), 0.4)  # none near: the nearest on each side
        self.assertAlmostEqual(sampler.handler_time(0.5, 1.05), 0.002)
        self.assertAlmostEqual(sampler.handler_time(0.5, 6.0), 0.006)

    def test_percentile(self):
        self.assertEqual(harness.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(harness.percentile(range(11), 90), 9)


if __name__ == "__main__":
    unittest.main()
