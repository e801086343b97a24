import itertools
import random
from fractions import Fraction

import pytest

from jacwall import (
    BoundaryPair,
    DegenerateParameter,
    DegreeSumMismatch,
    EmptySubset,
    GraphMismatch,
    GraphParameter,
    InvalidGraph,
    MalformedInput,
    MarkedGraph,
    Multidegree,
    NotTreeLike,
    StabilityParameter,
    TorsionFreeDegree,
    admissible_pairs,
    all_stable_multidegrees_bruteforce,
    canonical_parameter,
    extend_to_graph,
    genus,
    is_semistable,
    partial_degree,
    polytope_label,
    stability_inequality,
    stable_multidegree,
    twist_parameter,
    two_vertex_graph,
)
from test_graphs import _random_positive_rank_graph
from testutil import GN_SET, failure_crossings, random_parameter, random_sheaf, symmetric_inequality

F = Fraction


def pair(i, *marks):
    return BoundaryPair(i, frozenset(marks))


@pytest.fixture
def tv():
    return two_vertex_graph(2, 2, pair(1, 1))


@pytest.fixture
def path111():
    return MarkedGraph(
        {"v1": 1, "v2": 1, "v3": 1},
        [("v1", "v2"), ("v2", "v3")],
        {1: "v1", 2: "v3"},
    )


# -- sheaf data types -----------------------------------------------------------


def test_multidegree_validates_total(tv):
    with pytest.raises(DegreeSumMismatch):
        Multidegree(tv, {"v1": 1, "v2": 1})
    with pytest.raises(GraphMismatch):
        Multidegree(tv, {"v1": 1})


def test_line_bundle_is_the_sheaf_without_failures(tv):
    md = Multidegree(tv, {"v1": 1, "v2": 0})
    assert Multidegree is TorsionFreeDegree
    assert md == TorsionFreeDegree(tv, {"v1": 1, "v2": 0}, [])
    assert md.failures == frozenset() and dict(md.deg) == {"v1": 1, "v2": 0}
    assert md.as_tuple() == (1, 0) and len({md, Multidegree(tv, {"v1": 1, "v2": 0})}) == 1
    assert md != TorsionFreeDegree(tv, {"v1": 0, "v2": 0}, [0])


def test_torsion_free_validates_total(tv):
    TorsionFreeDegree(tv, {"v1": 0, "v2": 0}, [0])
    with pytest.raises(DegreeSumMismatch):
        TorsionFreeDegree(tv, {"v1": 0, "v2": 0}, [])


def test_torsion_free_rejects_bool_failure_index(path111):
    # True would name edge 1 and print as failures=[True]
    assert TorsionFreeDegree(path111, {"v1": 1, "v2": 0, "v3": 0}, [1]).failures == {1}
    with pytest.raises(InvalidGraph, match="edge index True"):
        TorsionFreeDegree(path111, {"v1": 1, "v2": 0, "v3": 0}, [True])


# -- partial degrees ---------------------------------------------------------------


def test_partial_degree_line_bundle_is_plain_sum(tv):
    md = Multidegree(tv, {"v1": 1, "v2": 0})
    assert partial_degree(md, {"v1"}) == 1
    assert partial_degree(md, {"v1", "v2"}) == 1


def test_partial_degree_counts_internal_failures(tv):
    td = TorsionFreeDegree(tv, {"v1": 0, "v2": 0}, [0])
    assert partial_degree(td, {"v1"}) == 0
    assert partial_degree(td, {"v1", "v2"}) == 1  # the failure edge becomes internal


def test_partial_degree_failure_loop_is_internal():
    G = MarkedGraph({"v": 1, "w": 1}, [("v", "v"), ("v", "w")], {1: "v", 2: "w"})
    loop_index = G.edges.index(("v", "v"))
    td = TorsionFreeDegree(G, {"v": 0, "w": 1}, [loop_index])
    assert partial_degree(td, {"v"}) == 1
    with pytest.raises(EmptySubset):
        partial_degree(td, set())


def test_partial_degree_complement_relation(corpus3):
    rng = random.Random(41)
    for (g, n), graphs in corpus3.items():
        for G in graphs[::4]:
            if len(G.vertices) == 1:
                continue
            F_sheaf = random_sheaf(rng, G)
            verts = frozenset(G.vertices)
            for r in range(1, len(verts)):
                for combo in itertools.combinations(sorted(verts), r):
                    V0 = frozenset(combo)
                    delta = failure_crossings(F_sheaf, V0)
                    assert (
                        partial_degree(F_sheaf, V0) + partial_degree(F_sheaf, verts - V0)
                        == g - 1 - delta
                    )


# -- stability tests ------------------------------------------------------------------


def test_is_semistable_examples(tv):
    pG = GraphParameter(tv, {"v1": F(7, 10), "v2": F(3, 10)})
    assert is_semistable(pG, Multidegree(tv, {"v1": 1, "v2": 0}), strict=True, mode="all")
    assert not is_semistable(pG, Multidegree(tv, {"v1": 0, "v2": 1}), strict=False, mode="all")

    can = GraphParameter(tv, {"v1": F(1, 2), "v2": F(1, 2)})
    push = TorsionFreeDegree(tv, {"v1": 0, "v2": 0}, [0])
    assert is_semistable(can, push, strict=False, mode="all")
    assert not is_semistable(can, push, strict=True, mode="all")


def test_is_semistable_rejects_mismatched_graph(tv, path111):
    pG = GraphParameter(tv, {"v1": F(1, 2), "v2": F(1, 2)})
    md = Multidegree(path111, {"v1": 1, "v2": 1, "v3": 0})
    with pytest.raises(GraphMismatch):
        is_semistable(pG, md)


def test_is_semistable_rejects_unknown_mode(tv):
    pG = GraphParameter(tv, {"v1": F(1, 2), "v2": F(1, 2)})
    with pytest.raises(MalformedInput):
        is_semistable(pG, Multidegree(tv, {"v1": 1, "v2": 0}), mode="everything")


def test_elementary_equals_all_modes(corpus3):
    rng = random.Random(43)
    for (g, n), graphs in corpus3.items():
        phi = random_parameter(rng, g, n)
        for G in graphs[::3]:
            pG = extend_to_graph(phi, G)
            for _ in range(2):
                F_sheaf = random_sheaf(rng, G)
                for strict in (False, True):
                    assert is_semistable(pG, F_sheaf, strict, "elementary") == is_semistable(
                        pG, F_sheaf, strict, "all"
                    )


def test_elementary_equals_all_modes_on_positive_rank():
    # At rank > 0 mode="elementary" tests the elementary subgraphs, not the one-pass tree route.
    rng = random.Random(59)
    outcomes = set()
    for _ in range(120):
        G = _random_positive_rank_graph(rng, rng.randint(2, 6))
        for failure_rate in (0.0, 0.0, 0.35, 0.35):
            F_sheaf = random_sheaf(rng, G, failure_rate)
            # a parameter near the degrees, so that semistable sheaves are common
            values = {v: F_sheaf.deg[v] + F(rng.randint(-6, 6), 8) for v in G.vertices[:-1]}
            values[G.vertices[-1]] = genus(G) - 1 - sum(values.values())
            pG = GraphParameter(G, values)
            for strict in (False, True):
                found = is_semistable(pG, F_sheaf, strict, "elementary")
                assert found == is_semistable(pG, F_sheaf, strict, "all")
                outcomes.add((bool(F_sheaf.failures), found))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_symmetric_form_equals_two_sided_bound(corpus3):
    rng = random.Random(47)
    for (g, n), graphs in corpus3.items():
        phi = random_parameter(rng, g, n)
        for G in graphs[::6]:
            if len(G.vertices) == 1:
                continue
            pG = extend_to_graph(phi, G)
            F_sheaf = random_sheaf(rng, G)
            verts = frozenset(G.vertices)
            for r in range(1, len(verts)):
                for combo in itertools.combinations(sorted(verts), r):
                    V0 = frozenset(combo)
                    for strict in (False, True):
                        assert symmetric_inequality(pG, F_sheaf, V0, strict) == (
                            stability_inequality(pG, F_sheaf, V0, strict)
                            and stability_inequality(pG, F_sheaf, verts - V0, strict)
                        )


# -- the unique stable multidegree ------------------------------------------------------


def _inline_stable_line_bundles(pG, strict):
    """Independent oracle: re-derive the box and the inequalities from scratch."""
    G = pG.graph
    verts = G.vertices
    total = genus(G) - 1
    spread = {v: 0 for v in verts}
    for i in G.nonloop_indices:
        a, b = G.edges[i]
        spread[a] += 1
        spread[b] += 1
    ranges = []
    for v in verts:
        lo = pG.value(v) - F(spread[v], 2)
        hi = pG.value(v) + F(spread[v], 2)
        ranges.append(range(int(lo) - 2, int(hi) + 3))
    out = []
    for candidate in itertools.product(*ranges):
        if sum(candidate) != total:
            continue
        deg = dict(zip(verts, candidate))
        ok = True
        for r in range(1, len(verts)):
            for combo in itertools.combinations(verts, r):
                V0 = set(combo)
                cross = sum(1 for a, b in G.edges if (a in V0) != (b in V0))
                lhs = sum(deg[v] for v in V0)
                rhs = sum(pG.value(v) for v in V0) - F(cross, 2)
                if lhs < rhs or (strict and lhs == rhs):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(candidate)
    return sorted(out)


def test_stable_multidegree_examples(tv, path111):
    pG = GraphParameter(tv, {"v1": F(7, 10), "v2": F(3, 10)})
    assert dict(stable_multidegree(pG).deg) == {"v1": 1, "v2": 0}
    assert _inline_stable_line_bundles(pG, strict=True) == [(1, 0)]

    pPath = GraphParameter(path111, {"v1": F(3, 10), "v2": F(4, 5), "v3": F(9, 10)})
    assert stable_multidegree(pPath).as_tuple() == (0, 1, 1)
    assert _inline_stable_line_bundles(pPath, strict=True) == [(0, 1, 1)]

    integral = GraphParameter(tv, {"v1": F(1), "v2": F(0)})
    assert dict(stable_multidegree(integral).deg) == {"v1": 1, "v2": 0}


def test_stable_multidegree_errors(tv):
    cycle = MarkedGraph({"a": 1, "b": 1}, [("a", "b"), ("a", "b")], {1: "a", 2: "b"})
    with pytest.raises(NotTreeLike):
        stable_multidegree(GraphParameter(cycle, {"a": F(1), "b": F(1)}))
    can = GraphParameter(tv, {"v1": F(1, 2), "v2": F(1, 2)})
    with pytest.raises(DegenerateParameter) as err:
        stable_multidegree(can)
    assert err.value.pair == pair(1, 1) and err.value.d == 0


@pytest.mark.parametrize(
    "markings, wall",
    [
        ({1: "v1", 2: "v2"}, (pair(1, 1), 2)),  # marking 1 on the root side: phi+ = 2 - (-1/2)
        ({1: "v2", 2: "v1"}, (pair(2, 1), -1)),  # marking 1 below the edge: phi+ = -1/2
    ],
)
def test_stable_multidegree_names_the_wall(markings, wall):
    # the solver roots at v1, so v2's subtree sum -1/2 is the half-odd one
    G = MarkedGraph({"v1": 1, "v2": 2}, [("v1", "v2")], markings)
    with pytest.raises(DegenerateParameter) as err:
        stable_multidegree(GraphParameter(G, {"v1": F(5, 2), "v2": F(-1, 2)}))
    assert (err.value.pair, err.value.d) == wall


@pytest.mark.parametrize(
    "v1, v2, wall",
    [
        (F(27, 10), F(3, 10), (pair(3, 1, 2), 3)),  # v3 is first in preorder, v4 shallower
        (F(3), F(0), (pair(2, 1), 2)),  # v2 and v4 are equally deep; v2's edge comes first
    ],
)
def test_stable_multidegree_names_the_first_wall_breadth_first(v1, v2, wall):
    G = MarkedGraph(
        {v: 1 for v in ("v1", "v2", "v3", "v4")},
        [("v1", "v2"), ("v2", "v3"), ("v1", "v4")],
        {1: "v1", 2: "v3"},
    )
    pG = GraphParameter(G, {"v1": v1, "v2": v2, "v3": F(1, 2), "v4": F(-1, 2)})
    with pytest.raises(DegenerateParameter) as err:
        stable_multidegree(pG)
    assert (err.value.pair, err.value.d) == wall


def test_bruteforce_matches_inline_oracle(corpus3):
    # the canonical parameter lies on every wall, so non-strict calls there find several, in order
    rng = random.Random(53)
    several = 0
    for (g, n), graphs in corpus3.items():
        for phi in (random_parameter(rng, g, n), canonical_parameter(g, n)):
            for G in graphs[::6]:
                pG = extend_to_graph(phi, G)
                for strict in (False, True):
                    got = [m.as_tuple() for m in all_stable_multidegrees_bruteforce(pG, strict)]
                    assert got == _inline_stable_line_bundles(pG, strict)
                    several += len(got) > 1
    assert several > 0


def test_bruteforce_unique_stable(corpus3):
    rng = random.Random(59)
    for (g, n), graphs in corpus3.items():
        for G in graphs[::3]:
            phi = random_parameter(rng, g, n)
            pG = extend_to_graph(phi, G)
            strict = all_stable_multidegrees_bruteforce(pG, strict=True)
            assert strict == [stable_multidegree(pG)]
            assert is_semistable(pG, strict[0], strict=True, mode="all")


def test_bruteforce_at_canonical_two_vertex(tv):
    can = extend_to_graph(canonical_parameter(2, 2), tv)
    semis = all_stable_multidegrees_bruteforce(can, strict=False)
    assert [m.as_tuple() for m in semis] == [(0, 1), (1, 0)]
    assert all_stable_multidegrees_bruteforce(can, strict=True) == []


def test_stability_invariant_under_twists():
    rng = random.Random(61)
    for g, n in GN_SET:
        phi = random_parameter(rng, g, n)
        twist = {p: rng.randint(-2, 2) for p in admissible_pairs(g, n)}
        shifted = twist_parameter(phi, twist)
        for p in admissible_pairs(g, n)[:3]:
            G = two_vertex_graph(g, n, p)
            pG = extend_to_graph(phi, G)
            pG2 = extend_to_graph(shifted, G)
            psi = {v: int(pG2.value(v) - pG.value(v)) for v in G.vertices}
            for m in all_stable_multidegrees_bruteforce(pG, strict=False):
                moved = Multidegree(G, {v: m.deg[v] + psi[v] for v in G.vertices})
                for strict in (False, True):
                    assert is_semistable(pG, m, strict, "all") == is_semistable(
                        pG2, moved, strict, "all"
                    )


def test_same_label_same_stable_sets_two_vertex():
    rng = random.Random(67)
    for g, n in GN_SET:
        phi1 = random_parameter(rng, g, n)
        label = polytope_label(phi1)
        coords = {p: d + F(rng.randint(-4, 4), 10) for p, d in label.label.items()}
        phi2 = StabilityParameter(g, n, coords)
        for p in label.pairs:
            G = two_vertex_graph(g, n, p)
            s1 = [m.as_tuple() for m in all_stable_multidegrees_bruteforce(extend_to_graph(phi1, G), True)]
            s2 = [m.as_tuple() for m in all_stable_multidegrees_bruteforce(extend_to_graph(phi2, G), True)]
            assert s1 == s2
