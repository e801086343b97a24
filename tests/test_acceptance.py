"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line on success (visible with -s or in the
captured output); a failed assertion is the FAIL signal.  Sampling is seeded,
so every run checks the identical case set.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from jacwall import (
    BoundaryPair,
    DivisorClass,
    GraphParameter,
    MarkedGraph,
    Multidegree,
    PolytopeLabel,
    StabilityParameter,
    admissible_pairs,
    all_stable_multidegrees_bruteforce,
    canonical_parameter,
    check_compatibility,
    connecting_twist,
    contract,
    ell,
    elementary_subgraphs,
    extend_to_graph,
    genus,
    hain_class,
    is_semistable,
    is_theta_flat,
    mueller_class,
    mueller_comparison,
    phi_from_degrees,
    phi_from_label,
    polytope_label,
    stability_inequality,
    stable_multidegree,
    stable_pairs_class,
    theta_pullback,
    twist_label,
    two_vertex_graph,
    wall_crossing,
)
from testutil import (
    GN_SET,
    all_degree_vectors,
    random_degrees,
    random_edge_subsets,
    random_parameter,
    random_sheaf,
    reference_pair,
    reference_side,
    symmetric_inequality,
    wall_crossing_single,
)

F = Fraction


def tally(name, cases, budget=None, elapsed=None):
    timing = f", {elapsed:.1f}s of {budget:.0f}s budget" if budget else ""
    print(f"ACCEPTANCE {name}: PASS ({cases} cases{timing})")


def stepped_crossing(phi1, phi2):
    """The composition of unit wall crossings from phi1 to phi2, one step at a time."""
    g, n = phi1.g, phi1.n
    stepped = DivisorClass(g, n)
    lab1, lab2 = polytope_label(phi1), polytope_label(phi2)
    for pair, d1, d2 in zip(lab1.pairs, lab1.values, lab2.values):
        for d in range(d1 + 1, d2 + 1):
            stepped = stepped + wall_crossing_single(g, n, pair, d)
        for d in range(d2 + 1, d1 + 1):
            stepped = stepped - wall_crossing_single(g, n, pair, d)
    return stepped


def test_c1_wall_crossing_pullback_consistency():
    started = time.monotonic()
    rng = random.Random(101)
    cases = 0
    for g, n in GN_SET:
        for _ in range(100):
            phi1 = random_parameter(rng, g, n)
            phi2 = random_parameter(rng, g, n)
            crossing = wall_crossing(phi1, phi2)
            assert stepped_crossing(phi1, phi2) == crossing

            for _ in range(5):
                degrees = random_degrees(rng, g, n)
                assert theta_pullback(phi2, degrees) - theta_pullback(phi1, degrees) == crossing
                cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    tally("1 wall-crossing/pullback consistency", cases, 10.0, elapsed)


@pytest.mark.parametrize("g, n", [(4, 5), (5, 7)])
def test_c1_c2_identities_at_ladder_sizes(g, n):
    rng = random.Random(1000 * g + n)
    phi1 = random_parameter(rng, g, n)
    phi2 = random_parameter(rng, g, n)
    crossing = wall_crossing(phi1, phi2)
    assert any(crossing.coeffs)
    assert stepped_crossing(phi1, phi2) == crossing
    checked = 0
    while checked < 3:
        degrees = random_degrees(rng, g, n)
        if not any(d < 0 for d in degrees):
            continue
        assert theta_pullback(phi2, degrees) - theta_pullback(phi1, degrees) == crossing
        _, diff = mueller_comparison(g, n, degrees)
        assert mueller_class(g, n, degrees) + diff == stable_pairs_class(g, n, degrees)
        checked += 1


def test_c2_section5_identity_suite():
    started = time.monotonic()
    cases = 0
    eighth_irr = {
        (g, n): DivisorClass(g, n, delta_irr=F(1, 8)) for g, n in GN_SET
    }
    for g, n in GN_SET:
        for degrees in all_degree_vectors(g, n, -3, 4):
            pairs_class = stable_pairs_class(g, n, degrees)
            assert hain_class(g, n, degrees) - pairs_class == eighth_irr[(g, n)]

            if any(d < 0 for d in degrees):
                _, diff = mueller_comparison(g, n, degrees)
                assert mueller_class(g, n, degrees) + diff == pairs_class

            easy = theta_pullback(phi_from_degrees(g, n, degrees), degrees)
            assert easy.delta_irr == 0 and not easy.delta
            cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    tally("2 section-5 identity suite", cases, 10.0, elapsed)


def test_c3_flat_polytope_constancy():
    cases = 0
    for g, n in GN_SET:
        pairs = admissible_pairs(g, n)
        if len(pairs) > 6:
            continue
        rng = random.Random(300 + 10 * g + n)
        degree_choices = [random_degrees(rng, g, n) for _ in range(3)]

        flat_labels = [
            PolytopeLabel(g, n, dict(zip(pairs, choice)))
            for choice in itertools.product(*[(p.i - 1, p.i) for p in pairs])
        ]
        for degrees in degree_choices:
            reference = stable_pairs_class(g, n, degrees)
            for label in flat_labels:
                assert theta_pullback(phi_from_label(label), degrees) == reference
                cases += 1

        # is_theta_flat accepts exactly the flat labels
        flat_set = set(flat_labels)
        for choice in itertools.product(*[range(p.i - 2, p.i + 2) for p in pairs]):
            label = PolytopeLabel(g, n, dict(zip(pairs, choice)))
            assert is_theta_flat(phi_from_label(label)) == (label in flat_set)
            cases += 1
    tally("3 flat-polytope constancy", cases)


def test_c4_unique_stable_multidegree(corpus4):
    started = time.monotonic()
    rng = random.Random(104)
    cases = 0
    for (g, n), graphs in corpus4.items():
        for G in graphs:
            for _ in range(20):
                phi = random_parameter(rng, g, n)
                pG = extend_to_graph(phi, G)
                strict = all_stable_multidegrees_bruteforce(pG, strict=True)
                assert len(strict) == 1
                assert strict[0] == stable_multidegree(pG)
                cases += 1

        canonical = canonical_parameter(g, n)
        for pair in admissible_pairs(g, n):
            G = two_vertex_graph(g, n, pair)
            pG = extend_to_graph(canonical, G)
            assert len(all_stable_multidegrees_bruteforce(pG, strict=False)) >= 2
            assert all_stable_multidegrees_bruteforce(pG, strict=True) == []
            cases += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    tally("4 unique stable multidegree", cases, 30.0, elapsed)


def test_c5_elementary_subgraph_sufficiency(corpus4):
    rng = random.Random(105)
    cases = 0
    for (g, n), graphs in corpus4.items():
        for G in graphs:
            phi = random_parameter(rng, g, n)
            pG = extend_to_graph(phi, G)
            verts = frozenset(G.vertices)
            proper = [
                frozenset(combo)
                for r in range(1, len(verts))
                for combo in itertools.combinations(sorted(verts), r)
            ]
            for _ in range(3):
                sheaf = random_sheaf(rng, G)
                for strict in (False, True):
                    assert is_semistable(pG, sheaf, strict, "elementary") == is_semistable(
                        pG, sheaf, strict, "all"
                    )
                    for subset in proper:
                        assert symmetric_inequality(pG, sheaf, subset, strict) == (
                            stability_inequality(pG, sheaf, subset, strict)
                            and stability_inequality(pG, sheaf, verts - subset, strict)
                        )
                cases += 1
    tally("5 elementary-subgraph sufficiency", cases)


def test_c6_polytope_iff_stability(corpus4):
    rng = random.Random(106)
    cases = 0
    for (g, n), graphs in corpus4.items():
        # same label, same strict-stable sets on every corpus graph
        for _ in range(3):
            phi1 = random_parameter(rng, g, n)
            label = polytope_label(phi1)
            coords = {p: d + F(rng.randint(-4, 4), 10) for p, d in label.label.items()}
            phi2 = StabilityParameter(g, n, coords)
            assert polytope_label(phi2) == label
            for G in graphs:
                first = all_stable_multidegrees_bruteforce(extend_to_graph(phi1, G), strict=True)
                second = all_stable_multidegrees_bruteforce(extend_to_graph(phi2, G), strict=True)
                assert [m.as_tuple() for m in first] == [m.as_tuple() for m in second]
                cases += 1

        # different labels witnessed on a two-vertex graph
        for _ in range(5):
            phi1 = random_parameter(rng, g, n)
            phi2 = random_parameter(rng, g, n)
            lab1, lab2 = polytope_label(phi1), polytope_label(phi2)
            if lab1 == lab2:
                continue
            witness = next(p for p, d1, d2 in zip(lab1.pairs, lab1.values, lab2.values) if d1 != d2)
            G = two_vertex_graph(g, n, witness)
            first = all_stable_multidegrees_bruteforce(extend_to_graph(phi1, G), strict=True)
            second = all_stable_multidegrees_bruteforce(extend_to_graph(phi2, G), strict=True)
            assert [m.as_tuple() for m in first] != [m.as_tuple() for m in second]
            cases += 1
    tally("6 polytope iff stability", cases)


def test_c7_compatibility_of_extension(corpus4):
    rng = random.Random(107)
    cases = 0
    for (g, n), graphs in corpus4.items():
        for G in graphs:
            phi = random_parameter(rng, g, n)
            pG = extend_to_graph(phi, G)
            for subset in random_edge_subsets(rng, len(G.edges), 20):
                H, _ = contract(G, subset)
                pH = extend_to_graph(phi, H)
                assert check_compatibility(pG, subset, pH)
                cases += 1
            for i in G.nonloop_indices:
                side = reference_side(G, i)
                assert pG.subset_sum(side) == phi.phi_plus(reference_pair(G, side))
    tally("7 compatibility of extension", cases)


def test_c8_twist_action(corpus4):
    rng = random.Random(108)

    # translation identity for the wall functionals
    cases = 0
    pool = [G for graphs in corpus4.values() for G in graphs if len(G.vertices) > 1]
    while cases < 100:
        G = pool[rng.randrange(len(pool))]
        verts = G.vertices
        base = [F(rng.randint(-20, 20), rng.randint(1, 10)) for _ in verts[:-1]]
        base.append(genus(G) - 1 - sum(base))
        phi = GraphParameter(G, dict(zip(verts, base)))
        psi = [rng.randint(-4, 4) for _ in verts[:-1]]
        psi.append(-sum(psi))
        shifted = GraphParameter(
            G, {v: phi.value(v) + psi[i] for i, v in enumerate(verts)}
        )
        subsets = elementary_subgraphs(G)
        subset = subsets[rng.randrange(len(subsets))]
        d = rng.randint(-6, 6)
        psi_on_subset = sum(psi[verts.index(v)] for v in subset)
        assert ell(shifted, subset, d) == ell(phi, subset, d - psi_on_subset)
        cases += 1

    # the twist group acts freely and transitively on labels
    transporter_cases = 0
    for g, n in GN_SET:
        pairs = admissible_pairs(g, n)
        for _ in range(10):
            labels = [
                PolytopeLabel(g, n, {p: rng.randint(-5, 5) for p in pairs}) for _ in range(3)
            ]
            t12 = connecting_twist(labels[0], labels[1])
            t23 = connecting_twist(labels[1], labels[2])
            t13 = connecting_twist(labels[0], labels[2])
            assert twist_label(labels[0], t12) == labels[1]
            assert {p: t12[p] + t23[p] for p in pairs} == t13
            assert connecting_twist(labels[0], labels[0]) == {p: 0 for p in pairs}
            transporter_cases += 1
    tally("8 twist action", cases + transporter_cases)


def _inline_semistable(G, phi_values, degs, strict):
    """Hand oracle: the partial-degree bound checked over every proper subset."""
    verts = list(G.vertices)
    for r in range(1, len(verts)):
        for combo in itertools.combinations(verts, r):
            subset = set(combo)
            crossing = sum(1 for a, b in G.edges if (a in subset) != (b in subset))
            lhs = sum(degs[v] for v in subset)
            rhs = sum(phi_values[v] for v in subset) - F(crossing, 2)
            if lhs < rhs or (strict and lhs == rhs):
                return False
    return True


def test_c9_worked_example_regression():
    # (a) path graph multidegree, re-derived by an inline exhaustive oracle
    path = MarkedGraph(
        {"v1": 1, "v2": 1, "v3": 1}, [("v1", "v2"), ("v2", "v3")], {1: "v1", 2: "v3"}
    )
    phi_values = {"v1": F(3, 10), "v2": F(4, 5), "v3": F(9, 10)}
    oracle_hits = [
        degs
        for degs in itertools.product(range(-3, 4), repeat=3)
        if sum(degs) == 2
        and _inline_semistable(path, phi_values, dict(zip(path.vertices, degs)), True)
    ]
    assert oracle_hits == [(0, 1, 1)]

    pG = GraphParameter(path, phi_values)
    assert stable_multidegree(pG).as_tuple() == (0, 1, 1)
    assert [m.as_tuple() for m in all_stable_multidegrees_bruteforce(pG, True)] == [(0, 1, 1)]

    # (b) the g=2, n=2, degrees (3,-2) class table, frozen from hand evaluation
    p012 = BoundaryPair(0, frozenset({1, 2}))
    p11 = BoundaryPair(1, frozenset({1}))
    gold_psi = {1: F(6), 2: F(1)}
    gold_delta = {p012: F(-1), p11: F(-3)}

    assert theta_pullback(phi_from_degrees(2, 2, (3, -2)), (3, -2)) == DivisorClass(
        2, 2, lam=-1, psi=gold_psi
    )
    assert stable_pairs_class(2, 2, (3, -2)) == DivisorClass(
        2, 2, lam=-1, psi=gold_psi, delta=gold_delta
    )
    assert hain_class(2, 2, (3, -2)) == DivisorClass(
        2, 2, lam=-1, psi=gold_psi, delta_irr=F(1, 8), delta=gold_delta
    )
    assert mueller_class(2, 2, (3, -2)) == stable_pairs_class(2, 2, (3, -2))

    # (c) the g=3, n=3, degrees (1,2,-1) discrepancy set, re-enumerated inline
    degrees = (1, 2, -1)
    inline_t = []
    for i in range(4):
        for r in range(3):
            for extra in itertools.combinations((2, 3), r):
                S = frozenset((1,) + extra)
                if i == 3 and len(S) > 1:
                    continue
                if i == 0 and len(S) < 2:
                    continue
                d_s = sum(degrees[j - 1] for j in S)
                if all(degrees[j - 1] > 0 for j in S) and d_s < i:
                    inline_t.append((i, S))
    assert sorted(inline_t) == [(2, frozenset({1})), (3, frozenset({1}))]

    t_set, diff = mueller_comparison(3, 3, degrees)
    assert [(p.i, p.S) for p in t_set] == sorted(inline_t)
    assert diff == DivisorClass(
        3,
        3,
        delta={
            BoundaryPair(2, frozenset({1})): F(1),
            BoundaryPair(3, frozenset({1})): F(2),
        },
    )
    tally("9 worked-example regression", 3)
