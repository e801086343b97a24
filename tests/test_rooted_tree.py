"""The rank-0 tree pass against a drop-the-edge reference search, on trees of up to 200 vertices."""

import random

import pytest

from jacwall import (
    GraphMismatch,
    MarkedGraph,
    NotTreeLike,
    admissible_pairs,
    boundary_pair_of_edge,
    elementary_subgraphs,
    extend_to_graph,
    genus,
)
from jacwall.graphs import pair_index, rooted_tree
from testutil import (
    TREE_SHAPES,
    random_parameter,
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
    for root in (G.vertices[0], G.marking_of[1], G.vertices[-1]):
        tree = rooted_tree(G, root)
        assert tree.order[0] == root and sorted(tree.order) == list(G.vertices)
        all_verts = frozenset(G.vertices)
        for v in tree.order[1:]:
            edge_index, p = tree.parent[v]
            assert v in G.edges[edge_index] and p in G.edges[edge_index]
            side = reference_side(G, edge_index)
            below = tree.subtree(v)
            assert below == (side if v in side else all_verts - side)
            assert tree.cut(v) == (reference_pair(G, side), v in side)
            assert tree.cut(v)[0] is pairs[index[reference_pair(G, side)]]


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
    roots = (G.vertices[0], G.marking_of[1], G.vertices[-1])
    extensions = [extend_to_graph(phi, G, root=root) for root in roots]
    assert extensions[1] == extensions[0] and extensions[2] == extensions[0]
    pG = extensions[0]
    for i in G.nonloop_indices:
        side = reference_side(G, i)
        assert pG.subset_sum(side) == phi.phi_plus(reference_pair(G, side))


def test_rooted_tree_errors():
    cycle = MarkedGraph({"a": 1, "b": 1}, [("a", "b"), ("a", "b")], {1: "a", 2: "b"})
    with pytest.raises(NotTreeLike):
        rooted_tree(cycle, "a")
    single = MarkedGraph({"a": 1}, [("a", "a")], {1: "a"})
    assert rooted_tree(single, "a").order == ("a",)
    with pytest.raises(GraphMismatch):
        rooted_tree(single, "nope")
