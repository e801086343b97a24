"""The rank-0 tree pass against a drop-the-edge reference search, and the rank-0 semistability
route against the elementary sides one by one, on trees of up to 200 vertices; one walk of the
graph serves a parameter's extension, its stable multidegree and its semistability tests."""

import random
from fractions import Fraction

import pytest

import jacwall.graphs
import jacwall.multidegrees
import jacwall.stability
from jacwall import (
    DegenerateParameter,
    GraphParameter,
    MarkedGraph,
    NotTreeLike,
    StabilityParameter,
    TorsionFreeDegree,
    admissible_pairs,
    boundary_pair_of_edge,
    canonical_parameter,
    elementary_subgraphs,
    extend_to_graph,
    genus,
    is_semistable,
    partial_degree,
    stability_inequality,
    stable_multidegree,
)
from jacwall.graphs import pair_index, rooted_tree
from jacwall.stability import HALF
from testutil import (
    TREE_SHAPES,
    random_parameter,
    random_sheaf,
    random_tree_graph,
    reference_pair,
    reference_side,
)

SIZES = (10, 50, 200)


def _graph(shape, k):
    return random_tree_graph(random.Random(f"{shape}:{k}"), shape, k)


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_preorder_slices_are_the_subtrees(shape, k):
    G = _graph(shape, k)
    pairs, index = admissible_pairs(genus(G), G.n), pair_index(genus(G), G.n)
    tree = rooted_tree(G)
    assert tree.order[0] == G.vertices[0] and sorted(tree.order) == list(G.vertices)
    all_verts = frozenset(G.vertices)
    for v in tree.order[1:]:
        edge_index, p = tree.parent[v]
        assert v in G.edges[edge_index] and p in G.edges[edge_index]
        side = reference_side(G, edge_index)
        below = tree.subtree(v)
        assert below == (side if v in side else all_verts - side)
        assert tree.cut(v) == (reference_pair(G, side), v in side)
        assert tree.cut(v)[0] is pairs[index[reference_pair(G, side)]]


@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_the_ladder_cuts_marking_one_off_on_both_sides(shape):
    # with one root, the walk still meets edges whose marking-1 side is the subtree below and the rest
    belows = set()
    for k in SIZES:
        tree = rooted_tree(_graph(shape, k))
        belows.update(tree.cut(v)[1] for v in tree.order[1:])
    assert belows == {False, True}


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_boundary_pair_of_every_edge(shape, k):
    G = _graph(shape, k)
    for i in G.nonloop_indices:
        side = reference_side(G, i)
        assert boundary_pair_of_edge(G, i) == (reference_pair(G, side), side)


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_elementary_subgraphs_are_the_edge_sides(shape, k):
    G = _graph(shape, k)
    all_verts = frozenset(G.vertices)
    sides = [reference_side(G, i) for i in G.nonloop_indices]
    expected = sides + [all_verts - side for side in sides]
    expected.sort(key=lambda subset: (len(subset), sorted(subset)))
    assert elementary_subgraphs(G) == expected


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_extend_to_graph_from_three_roots(shape, k):
    G = _graph(shape, k)
    phi = random_parameter(random.Random(f"phi:{shape}:{k}"), genus(G), G.n)
    pG = extend_to_graph(phi, G)
    for i in G.nonloop_indices:
        side = reference_side(G, i)
        assert pG.subset_sum(side) == phi.phi_plus(reference_pair(G, side))


def _sheaves(rng, G, md):
    """md, md moved across a tree edge, md with a failure on a tree edge and on a loop, random sheaves."""
    a, b = G.edges[rng.choice(G.nonloop_indices)]
    moved = dict(md.deg)
    moved[a] -= 1
    moved[b] += 1
    sheaves = [md, TorsionFreeDegree(G, moved)]
    loop = next(i for i, (a, b) in enumerate(G.edges) if a == b)
    for i in (rng.choice(G.nonloop_indices), loop):
        norm = dict(md.deg)
        norm[G.edges[i][rng.randrange(2)]] -= 1
        sheaves.append(TorsionFreeDegree(G, norm, [i]))
    return sheaves + [random_sheaf(rng, G, rate) for rate in (0.05, 0.35, 0.35)]


def _on_a_wall(rng, G, md, sign):
    """A parameter summing to md's degree plus sign = +-1/2 over one subtree, and to within 1/2 elsewhere.

    md is semistable for it but not stable.  So is md with a failure on that
    subtree's parent edge and one degree taken off at the parent's end for
    sign +1/2, or at the child's end for -1/2; the other end makes it unstable.
    """
    tree = rooted_tree(G)
    w = rng.choice(tree.order[1:])
    sums = {
        v: partial_degree(md, tree.subtree(v)) + (sign if v == w else Fraction(rng.randint(-4, 4), 10))
        for v in tree.order[1:]
    }
    values = {tree.order[0]: Fraction(genus(G) - 1), **sums}
    for v in tree.order[1:]:
        values[tree.parent[v][1]] -= sums[v]
    i, p = tree.parent[w]
    sheaves = [TorsionFreeDegree(G, {**md.deg, end: md.deg[end] - 1}, [i]) for end in (p, w)]
    return GraphParameter(G, values), [md] + sheaves


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_is_semistable_tree_route_against_elementary_sides(shape, k):
    G = _graph(shape, k)
    rng = random.Random(f"sheaves:{shape}:{k}")
    pG = extend_to_graph(random_parameter(rng, genus(G), G.n), G)
    md = stable_multidegree(pG)
    cases = [(pG, _sheaves(rng, G, md)), _on_a_wall(rng, G, md, HALF), _on_a_wall(rng, G, md, -HALF)]
    assert any(G.edges[i][0] == G.edges[i][1] for F in cases[0][1] for i in F.failures)
    sides = elementary_subgraphs(G)
    verdicts = []
    for pG, sheaves in cases:
        for F in sheaves:
            for strict in (False, True):
                expected = all(stability_inequality(pG, F, side, strict) for side in sides)
                assert is_semistable(pG, F, strict) == expected
                verdicts.append(expected)
    # stable; then on each wall, md and one of the two failures are semistable but not stable
    assert verdicts[:2] == [True, True]
    semistable, unstable = [True, False], [False, False]
    assert verdicts[-12:] == semistable * 2 + unstable + semistable + unstable + semistable


def test_is_semistable_on_one_vertex():
    G = MarkedGraph({"a": 2}, [("a", "a")], {1: "a"})
    pG = GraphParameter(G, {"a": 2})
    assert elementary_subgraphs(G) == []
    for F in (TorsionFreeDegree(G, {"a": 2}), TorsionFreeDegree(G, {"a": 1}, [0])):
        assert is_semistable(pG, F) and is_semistable(pG, F, strict=True)


def test_rooted_tree_errors():
    cycle = MarkedGraph({"a": 1, "b": 1}, [("a", "b"), ("a", "b")], {1: "a", 2: "b"})
    with pytest.raises(NotTreeLike):
        rooted_tree(cycle)
    single = MarkedGraph({"a": 1}, [("a", "a")], {1: "a"})
    assert rooted_tree(single).order == ("a",)


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_differences_and_totals_are_inverse(shape, k):
    G = _graph(shape, k)
    rng = random.Random(f"sums:{shape}:{k}")
    tree = rooted_tree(G)
    for draw in (lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 10))):
        x = {v: draw() for v in G.vertices}
        assert tree.differences(tree.totals(x)) == x
        assert tree.totals(tree.differences(x)) == x


def _count_walks(monkeypatch) -> list:
    """The graph of every `rooted_tree` walk made from now on, through any module that calls it."""
    walks = []

    def counting(G):
        walks.append(G)
        return rooted_tree(G)

    for module in (jacwall.graphs, jacwall.stability, jacwall.multidegrees):
        if hasattr(module, "rooted_tree"):
            monkeypatch.setattr(module, "rooted_tree", counting)
    return walks


@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_one_walk_serves_extension_multidegree_and_semistability(shape, monkeypatch):
    # each of the three used to walk the graph from its first vertex again
    G = _graph(shape, 50)
    phi = random_parameter(random.Random(f"walks:{shape}"), genus(G), G.n)
    walks = _count_walks(monkeypatch)
    pG = extend_to_graph(phi, G)
    assert is_semistable(pG, stable_multidegree(pG), strict=True)
    assert walks == [G]


def _on_walls(rng, G, phi, count):
    """phi with the coordinates that `count` random tree edges cut moved onto walls d + 1/2."""
    tree = rooted_tree(G)
    coords = dict(zip(phi.pairs, phi.values))
    for v in rng.sample(tree.order[1:], min(count, len(tree.order) - 1)):
        coords[tree.cut(v)[0]] = Fraction(2 * rng.randint(-3, 3) + 1, 2)
    return StabilityParameter(phi.g, phi.n, coords)


def _outcome(pG, sheaves):
    """stable_multidegree's result or wall (pair, d, message), and the (semi)stability verdicts."""
    try:
        md = stable_multidegree(pG)
        result = (md, repr(md))
    except DegenerateParameter as wall:
        result = (wall.pair, wall.d, str(wall))
    return result, [is_semistable(pG, F, strict) for F in sheaves for strict in (False, True)]


def _assert_kept_walk_changes_nothing(rng, G, sheaves):
    """A parameter filled with the walk of its extension and an unfilled copy give the same answers."""
    g = genus(G)
    phi = random_parameter(rng, g, G.n)
    for phi in (phi, _on_walls(rng, G, phi, 1), _on_walls(rng, G, phi, 3), canonical_parameter(g, G.n)):
        pG = extend_to_graph(phi, G)
        assert _outcome(GraphParameter(G, dict(pG.values)), sheaves) == _outcome(pG, sheaves)


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_kept_walk_gives_the_same_answers_on_the_ladder(shape, k):
    G = _graph(shape, k)
    rng = random.Random(f"kept:{shape}:{k}")
    md = stable_multidegree(extend_to_graph(random_parameter(rng, genus(G), G.n), G))
    _assert_kept_walk_changes_nothing(rng, G, _sheaves(rng, G, md))


def test_kept_walk_gives_the_same_answers_on_the_corpus(corpus4):
    rng = random.Random("kept:corpus4")
    for graphs in corpus4.values():
        for G in graphs:
            sheaves = [random_sheaf(rng, G, 0.0), random_sheaf(rng, G, 0.5)]
            _assert_kept_walk_changes_nothing(rng, G, sheaves)
