import copy
import itertools
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacwall import (
    BoundaryPair,
    InadmissiblePair,
    InvalidGN,
    InvalidGraph,
    LoopEdge,
    MarkedGraph,
    NotTreeLike,
    admissible_pairs,
    basis_labels,
    boundary_pair_of_edge,
    contract,
    crossing_edge_indices,
    elementary_subgraphs,
    elementary_subgraphs_bruteforce,
    enumerate_tree_type_graphs,
    genus,
    loop_free_circuit_rank,
    normalize_pair,
    two_vertex_graph,
)
from jacwall.graphs import _compositions, _tree_code, _tree_shapes, side_sums
from testutil import permutation_key, reference_contract, reference_tree_shapes


def pair(i, *marks):
    return BoundaryPair(i, frozenset(marks))


@pytest.fixture
def path111():
    return MarkedGraph(
        {"v1": 1, "v2": 1, "v3": 1},
        [("v1", "v2"), ("v2", "v3")],
        {1: "v1", 2: "v3"},
    )


# -- construction and validation ------------------------------------------------


def test_rejects_disconnected():
    with pytest.raises(InvalidGraph):
        MarkedGraph({"a": 1, "b": 1}, [], {1: "a", 2: "b"})


def test_rejects_unstable_genus_zero_vertex():
    with pytest.raises(InvalidGraph):
        MarkedGraph({"a": 0, "b": 2}, [("a", "b")], {1: "b", 2: "b"})


def test_rejects_bad_markings():
    with pytest.raises(InvalidGraph):
        MarkedGraph({"a": 1}, [], {2: "a"})
    with pytest.raises(InvalidGraph):
        MarkedGraph({"a": 1}, [], {})


@pytest.mark.parametrize("edge", [("a",), ("a", "a", "a"), 7])
def test_rejects_edge_without_two_endpoints(edge):
    with pytest.raises(InvalidGraph, match="exactly two endpoints"):
        MarkedGraph({"a": 1}, [edge], {1: "a"})


@pytest.mark.parametrize(
    "edges, markings", [([(["a"], "a")], {1: "a"}), ([("a", ["a"])], {1: "a"}), ([], {1: ["a"]})]
)
def test_rejects_unhashable_vertex_reference(edges, markings):
    with pytest.raises(InvalidGraph, match="unknown"):
        MarkedGraph({"a": 1}, edges, markings)


def test_rejects_bool_genus():
    with pytest.raises(InvalidGraph, match="genus of a"):
        MarkedGraph({"a": True}, [], {1: "a"})


def test_rejects_bool_marking_label():
    with pytest.raises(InvalidGraph, match="marking labels"):
        MarkedGraph({"a": 1}, [], {True: "a"})


def test_loop_counts_twice_for_stability():
    G = MarkedGraph({"a": 0}, [("a", "a")], {1: "a"})
    assert genus(G) == 1 and G.valence["a"] == 2


def test_edges_sorted_and_indexable():
    G = MarkedGraph({"b": 1, "a": 1}, [("b", "a"), ("a", "a")], {1: "a", 2: "b"})
    assert G.edges == (("a", "a"), ("a", "b"))
    assert G.edges[0][0] == G.edges[0][1] and G.edges[1][0] != G.edges[1][1]


# -- genus and rank ----------------------------------------------------------------


def test_genus_examples(path111):
    assert genus(MarkedGraph({"a": 1, "b": 1}, [("a", "b")], {1: "a", 2: "b"})) == 2
    assert genus(MarkedGraph({"a": 1}, [("a", "a")], {1: "a"})) == 2
    assert genus(path111) == 3


def test_rank_examples():
    assert loop_free_circuit_rank(
        MarkedGraph({"a": 1, "b": 1}, [("a", "b"), ("a", "a")], {1: "a", 2: "b"})
    ) == 0
    assert loop_free_circuit_rank(
        MarkedGraph({"a": 1, "b": 1}, [("a", "b"), ("a", "b")], {1: "a", 2: "b"})
    ) == 1
    assert loop_free_circuit_rank(MarkedGraph({"a": 1}, [], {1: "a"})) == 0


# -- contraction ---------------------------------------------------------------------


def test_contract_nonloop_merges_and_reroutes_markings():
    G = two_vertex_graph(2, 2, pair(1, 1))
    H, vmap = contract(G, [0])
    assert dict(H.genus_of) == {"v1": 2}
    assert dict(H.marking_of) == {1: "v1", 2: "v1"}
    assert vmap == {"v1": "v1", "v2": "v1"}


def test_contract_loop_bumps_genus():
    G = MarkedGraph({"a": 1}, [("a", "a")], {1: "a"})
    H, _ = contract(G, [0])
    assert dict(H.genus_of) == {"a": 2}


def test_contract_whole_path(path111):
    H, vmap = contract(path111, [0, 1])
    assert dict(H.genus_of) == {"v1": 3}
    assert set(vmap.values()) == {"v1"}


def test_contract_parallel_pair_creates_cycle_genus():
    G = MarkedGraph({"a": 1, "b": 1}, [("a", "b"), ("a", "b")], {1: "a", 2: "b"})
    H, _ = contract(G, [0])
    assert H.edges == (("a", "a"),)
    H2, _ = contract(G, [0, 1])
    assert dict(H2.genus_of) == {"a": 3} and genus(H2) == genus(G)


CORPUS_223 = enumerate_tree_type_graphs(2, 2, 3)


def test_contract_preserves_genus_and_stability_over_corpus():
    rng = random.Random(5)
    for G in CORPUS_223:
        edge_count = len(G.edges)
        subsets = [range(edge_count)]
        if edge_count:
            subsets += [
                rng.sample(range(edge_count), rng.randint(1, edge_count)) for _ in range(4)
            ]
        for subset in subsets:
            H, vmap = contract(G, subset)
            assert genus(H) == genus(G)
            assert set(vmap) == set(G.vertices)
            # the constructor re-validates, so reaching here means H is stable


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_contract_preserves_genus_property(data):
    G = data.draw(st.sampled_from(CORPUS_223))
    mask = data.draw(st.lists(st.booleans(), min_size=len(G.edges), max_size=len(G.edges)))
    subset = [i for i, keep in enumerate(mask) if keep]
    H, _ = contract(G, subset)
    assert genus(H) == genus(G)


def _random_positive_rank_graph(rng: random.Random, k: int) -> MarkedGraph:
    """A random tree on k >= 2 vertices plus a parallel copy of its first edge and random extra edges and loops."""
    ids = [f"v{v}" for v in range(k)]
    edges = [(ids[rng.randrange(v)], ids[v]) for v in range(1, k)]
    edges.append(edges[0])
    edges += [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, k))]
    markings = {j: rng.choice(ids) for j in range(1, rng.randint(1, 3) + 1)}
    genera = {v: rng.randint(0, 1) for v in ids}
    for v in ids:
        special = sum((a == v) + (b == v) for a, b in edges) + list(markings.values()).count(v)
        if genera[v] == 0 and special < 3:
            edges.append((v, v))
    return MarkedGraph(genera, edges, markings)


def test_contract_matches_union_find_on_positive_rank():
    rng = random.Random(73)
    for _ in range(120):
        G = _random_positive_rank_graph(rng, rng.randint(2, 7))
        assert loop_free_circuit_rank(G) > 0
        edge_count = len(G.edges)
        loops = [i for i, (a, b) in enumerate(G.edges) if a == b]
        subsets = [[], list(range(edge_count)), loops]
        subsets += [rng.sample(range(edge_count), rng.randint(1, edge_count)) for _ in range(5)]
        for subset in subsets:
            H, vmap = contract(G, subset)
            H_ref, ref_map = reference_contract(G, subset)
            assert H == H_ref
            assert genus(H) == genus(G) and H.n == G.n
            assert list(vmap) == list(G.vertices) and vmap == ref_map
            for v in G.vertices:
                assert vmap[v] == min(u for u in G.vertices if ref_map[u] == ref_map[v])


def test_marked_graph_accepts_exactly_the_connected_graphs():
    # connectedness judged by a union-find, on multigraphs of every rank with edges removed
    rng = random.Random(31)
    outcomes = set()
    for _ in range(300):
        G = _random_positive_rank_graph(rng, rng.randint(2, 7))
        kept = [e for e in G.edges if rng.random() < 0.6]
        root = {v: v for v in G.vertices}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for a, b in kept:
            root[find(a)] = find(b)
        connected = len({find(v) for v in G.vertices}) == 1
        genera = dict.fromkeys(G.vertices, 1)  # every vertex stable whatever edges remain
        try:
            H = MarkedGraph(genera, kept, G.marking_of)
        except InvalidGraph as err:
            assert not connected and str(err) == "graph is not connected"
        else:
            assert connected and H.edges == tuple(sorted(kept))
        has_cycle = sum(a != b for a, b in kept) > len(G.vertices) - 1  # positive rank, when connected
        outcomes.add((connected, has_cycle))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


# -- boundary pairs -------------------------------------------------------------------


def test_boundary_pair_of_edge_path(path111):
    p, side = boundary_pair_of_edge(path111, 1)  # edge v2-v3
    assert p == pair(2, 1) and side == frozenset({"v1", "v2"})
    p, side = boundary_pair_of_edge(path111, 0)  # edge v1-v2
    assert p == pair(1, 1) and side == frozenset({"v1"})


def test_boundary_pair_two_vertex():
    G = two_vertex_graph(1, 2, pair(0, 1, 2))
    p, side = boundary_pair_of_edge(G, 0)
    assert p == pair(0, 1, 2) and side == frozenset({"v1"})


def test_boundary_pair_counts_loops_in_side_genus():
    G = MarkedGraph({"a": 0, "b": 1}, [("a", "a"), ("a", "b")], {1: "a", 2: "b"})
    p, side = boundary_pair_of_edge(G, 1)
    assert p == pair(1, 1) and side == frozenset({"a"})


def test_boundary_pair_errors(path111):
    loopy = MarkedGraph({"a": 1, "b": 1}, [("a", "a"), ("a", "b")], {1: "a", 2: "b"})
    with pytest.raises(LoopEdge):
        boundary_pair_of_edge(loopy, 0)
    cycle = MarkedGraph({"a": 1, "b": 1}, [("a", "b"), ("a", "b")], {1: "a", 2: "b"})
    with pytest.raises(NotTreeLike):
        boundary_pair_of_edge(cycle, 0)


@pytest.mark.parametrize("index", ["0", None, True, 1.0, -1, 2, 10**5000], ids=["str", "none", "bool", "float", "-1", "2", "long"])
def test_edge_indices_must_be_ints_in_range(path111, index):
    # contract raised TypeError on "0", None and 1.0 and contracted edge 1 for True; boundary_pair_of_edge
    # raised IndexError on 2 and read the last edge for -1; both wrote an over-long index with str()
    message = r"^edge index .+ out of range for 2 edges$"
    with pytest.raises(InvalidGraph, match=message):
        contract(path111, [index])
    with pytest.raises(InvalidGraph, match=message):
        boundary_pair_of_edge(path111, index)


def test_boundary_pair_checks_rank_then_index_then_loop():
    cycle = MarkedGraph({"a": 1, "b": 1}, [("a", "b"), ("a", "b")], {1: "a", 2: "b"})
    with pytest.raises(NotTreeLike):
        boundary_pair_of_edge(cycle, 5)
    loopy = MarkedGraph({"a": 1, "b": 1}, [("a", "a"), ("a", "b")], {1: "a", 2: "b"})
    with pytest.raises(InvalidGraph, match="^edge index 5 out of range for 2 edges$"):
        boundary_pair_of_edge(loopy, 5)
    with pytest.raises(LoopEdge):
        boundary_pair_of_edge(loopy, 0)


def test_boundary_pair_complement_agreement(corpus3):
    # Computing the pair from the other side and normalizing gives the same pair.
    for (g, n), graphs in corpus3.items():
        for G in graphs:
            for i in G.nonloop_indices:
                p, side = boundary_pair_of_edge(G, i)
                other = frozenset(G.vertices) - side
                other_genus = sum(G.genus_of[v] + G.loops_at[v] for v in other)
                other_marks = frozenset(j for j, v in G.marking_of.items() if v in other)
                assert normalize_pair(g, n, other_genus, other_marks) == p


# -- two-vertex graphs and admissible pairs -----------------------------------------------


def test_two_vertex_graph_examples():
    G = two_vertex_graph(2, 2, pair(1, 1))
    assert dict(G.genus_of) == {"v1": 1, "v2": 1}
    assert dict(G.marking_of) == {1: "v1", 2: "v2"}
    G = two_vertex_graph(1, 3, pair(0, 1, 2))
    assert dict(G.genus_of) == {"v1": 0, "v2": 1}
    assert dict(G.marking_of) == {1: "v1", 2: "v1", 3: "v2"}
    with pytest.raises(InadmissiblePair):
        two_vertex_graph(2, 1, pair(0, 1))


def _admissible_oracle(g, n):
    # Independent filter, straight from the two defining inequalities.
    out = []
    for i in range(g + 1):
        for r in range(n):
            for extra in itertools.combinations(range(2, n + 1), r):
                S = frozenset((1,) + extra)
                if i == g and len(S) > n - 2:
                    continue
                if i == 0 and len(S) < 2:
                    continue
                out.append((i, S))
    return sorted(out, key=lambda q: (q[0], sum(1 << (j - 1) for j in q[1])))


@pytest.mark.parametrize(
    "g,n,expected",
    [
        (2, 2, [(0, {1, 2}), (1, {1}), (1, {1, 2})]),
        (1, 2, [(0, {1, 2})]),
        (2, 1, [(1, {1})]),
    ],
)
def test_admissible_pairs_examples(g, n, expected):
    got = [(p.i, set(p.S)) for p in admissible_pairs(g, n)]
    assert got == expected
    assert [(i, set(S)) for i, S in _admissible_oracle(g, n)] == got


def test_admissible_pairs_match_oracle_everywhere():
    for g, n in [(1, 1), (1, 3), (3, 2), (3, 3), (0, 3), (0, 4)]:
        assert [(p.i, p.S) for p in admissible_pairs(g, n)] == _admissible_oracle(g, n)


def test_two_vertex_graph_succeeds_exactly_on_admissible_pairs():
    for g, n in [(1, 2), (2, 1), (2, 2), (3, 3)]:
        admissible = set(admissible_pairs(g, n))
        for i in range(g + 1):
            for r in range(n):
                for extra in itertools.combinations(range(2, n + 1), r):
                    candidate = BoundaryPair(i, frozenset((1,) + extra))
                    if candidate in admissible:
                        assert genus(two_vertex_graph(g, n, candidate)) == g
                    else:
                        with pytest.raises(InadmissiblePair):
                            two_vertex_graph(g, n, candidate)


HUGE = 10**4999  # 5,000 digits, past the length int() reads from text


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_side_sums_match_a_per_pair_sum(data):
    n = data.draw(st.integers(1, 9), label="n")
    g = data.draw(st.integers(0 if n >= 3 else 1, 3), label="g")
    value = st.one_of(st.integers(-20, 20), st.integers(-9, 9).map(lambda k: k * HUGE + k))
    values = data.draw(st.lists(value, min_size=n, max_size=n), label="values")
    expected = [sum(values[j - 1] for j in pair.S) for pair in admissible_pairs(g, n)]
    assert side_sums(g, n, values) == expected


def test_normalize_pair_flips_side():
    assert normalize_pair(2, 2, 1, {2}) == pair(1, 1)
    assert normalize_pair(3, 3, 2, {2, 3}) == pair(1, 1)
    with pytest.raises(InadmissiblePair):
        normalize_pair(2, 2, 2, {1})  # would need #S <= n-2


def test_bools_are_not_pair_indices():
    # True == 1 and hash(True) == hash(1): accepted, (True,{True}) printed as such yet equal to (1,{1})
    for i, marks in ((True, [1]), (True, [2]), (1, [True]), (False, [1, 2])):
        with pytest.raises(InadmissiblePair):
            normalize_pair(2, 2, i, marks)
    with pytest.raises(InadmissiblePair):
        BoundaryPair(True, {True})
    assert normalize_pair(2, 2, 1, [2]) == BoundaryPair(1, {1})


def test_boundary_pair_repr_and_equality():
    assert repr(BoundaryPair(1, {1})) == "BoundaryPair(i=1, S=frozenset({1}))"
    assert BoundaryPair(1, {1}) != (1, frozenset({1})) and BoundaryPair(1, [1]) == BoundaryPair(1, {1})
    # the generated repr wrote S with repr(), which raised ValueError past the digit limit
    limit = sys.get_int_max_str_digits()
    text = f"BoundaryPair(i=1, S=a value over Python's {limit}-digit limit for writing an integer)"
    assert repr(BoundaryPair(1, {1, 10**5000})) == text


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))], ids=["copy", "deepcopy", "pickle"]
)
def test_boundary_pair_copies_and_pickles(clone):
    p = BoundaryPair(2, {1, 3})
    q = clone(p)
    assert type(q) is BoundaryPair and q == p and hash(q) == hash(p) and (q.i, q.S) == (2, frozenset({1, 3}))


@pytest.mark.parametrize("field", ["i", "S"])
def test_boundary_pair_fields_cannot_be_set_or_deleted(field):
    # a pair keys every pair-indexed dict, so changing one in place would lose its entries
    p = BoundaryPair(1, {1})
    with pytest.raises(AttributeError):
        setattr(p, field, 0)
    with pytest.raises(AttributeError):
        delattr(p, field)
    assert p == BoundaryPair(1, {1}) and (p.i, p.S) == (1, frozenset({1}))


def test_invalid_gn():
    with pytest.raises(InvalidGN):
        admissible_pairs(0, 2)
    with pytest.raises(InvalidGN):
        admissible_pairs(1, 0)
    with pytest.raises(InvalidGN):
        admissible_pairs(-1, 2)


def test_bools_are_not_genus_or_marking_counts():
    # (1, 3) is cached first: True == 1 and hash(True) == hash(1), so an untyped cache would answer
    assert len(admissible_pairs(1, 3)) == 4 and len(basis_labels(1, 3)) == 9
    for g, n in ((True, 3), (1, True), (False, 3)):
        with pytest.raises(InvalidGN):
            admissible_pairs(g, n)
        with pytest.raises(InvalidGN):
            basis_labels(g, n)


# -- elementary subgraphs -------------------------------------------------------------------


def test_elementary_subgraphs_path(path111):
    expected = sorted(
        [frozenset({"v1"}), frozenset({"v3"}), frozenset({"v1", "v2"}), frozenset({"v2", "v3"})],
        key=lambda s: (len(s), tuple(sorted(s))),
    )
    assert elementary_subgraphs(path111) == expected
    assert elementary_subgraphs_bruteforce(path111) == expected


def test_elementary_subgraphs_two_vertex_and_single():
    G = two_vertex_graph(2, 2, pair(1, 1))
    assert elementary_subgraphs(G) == [frozenset({"v1"}), frozenset({"v2"})]
    assert elementary_subgraphs(MarkedGraph({"a": 1}, [], {1: "a"})) == []


def test_elementary_fast_path_matches_definition(corpus3):
    for graphs in corpus3.values():
        for G in graphs:
            fast = elementary_subgraphs(G)
            assert fast == elementary_subgraphs_bruteforce(G)
            assert len(fast) == 2 * len(G.nonloop_indices)
            for subset in fast:
                assert len(crossing_edge_indices(G, subset)) == 1


def test_elementary_on_positive_rank_graph():
    # A 3-cycle: every proper nonempty subset is elementary.
    G = MarkedGraph(
        {"a": 1, "b": 1, "c": 1},
        [("a", "b"), ("b", "c"), ("a", "c")],
        {1: "a", 2: "b"},
    )
    subsets = elementary_subgraphs(G)
    assert subsets == elementary_subgraphs_bruteforce(G)
    assert len(subsets) == 6


# -- corpus generator ------------------------------------------------------------------------


def test_enumerate_examples():
    got = enumerate_tree_type_graphs(1, 3, 1)
    shapes = sorted((sum(G.genus_of.values()), len(G.edges)) for G in got)
    assert shapes == [(0, 1), (1, 0)]  # one loop on a genus-0 vertex, or a genus-1 vertex

    only = enumerate_tree_type_graphs(0, 3, 1)
    assert len(only) == 1 and dict(only[0].genus_of) == {"v1": 0}


def test_enumerate_generator_contract():
    for G in enumerate_tree_type_graphs(2, 2, 3):
        assert genus(G) == 2
        assert loop_free_circuit_rank(G) == 0
        assert G.n == 2


def test_enumerate_rejects_bad_input():
    with pytest.raises(InvalidGN):
        enumerate_tree_type_graphs(1, 2, 0)
    with pytest.raises(InvalidGN):
        enumerate_tree_type_graphs(0, 1, 2)


def test_enumerate_rejects_bool_max_vertices():
    with pytest.raises(InvalidGN):
        enumerate_tree_type_graphs(1, 2, True)


def test_enumerate_covers_expected_two_vertex_types():
    corpus = enumerate_tree_type_graphs(2, 2, 2)
    two_vertex = [G for G in corpus if len(G.vertices) == 2 and len(G.edges) == 1]
    types = {
        tuple(sorted((G.genus_of[v], G.markings_at[v]) for v in G.vertices))
        for G in two_vertex
    }
    # all stable splittings of genus 2 with 2 markings across one edge
    assert ((1, 0), (1, 2)) in types
    assert ((1, 1), (1, 1)) in types
    assert ((0, 2), (2, 0)) in types


def _is_tree_on(k, edges):
    reached = {0}
    for _ in range(k):
        reached |= {b for a, b in edges if a in reached} | {a for a, b in edges if b in reached}
    return len(edges) == k - 1 and all(0 <= v < k for e in edges for v in e) and len(reached) == k


def test_tree_shapes_are_the_unlabelled_trees():
    # OEIS A000055: the number of trees on k unlabelled vertices
    for k, count in zip(range(1, 11), (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)):
        shapes = _tree_shapes(k)
        assert len(shapes) == count
        assert all(_is_tree_on(k, edges) and all(a < b for a, b in edges) for edges in shapes)
        assert len({_tree_code(k, edges, [0] * k) for edges in shapes}) == count


def test_tree_shapes_match_the_recursive_tree_walk():
    # same edge tuples in the same order: `check` samples from the corpus by position
    for k in range(1, 8):
        assert _tree_shapes(k) == reference_tree_shapes(k)


def test_tree_code_is_invariant_under_renumbering():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(1, 8)
        edges = [(rng.randrange(v), v) for v in range(1, k)]
        labels = [rng.randint(0, 1) for _ in range(k)]
        p = list(range(k))
        rng.shuffle(p)
        moved = [None] * k
        for v in range(k):
            moved[p[v]] = labels[v]
        assert _tree_code(k, [(p[a], p[b]) for a, b in edges], moved) == _tree_code(k, edges, labels)


def test_tree_code_separates_labellings():
    path = [(0, 1), (1, 2)]
    assert _tree_code(3, path, [1, 0, 0]) != _tree_code(3, path, [0, 1, 0])
    assert _tree_code(3, path, [1, 0, 0]) == _tree_code(3, path, [0, 0, 1])


def test_compositions_are_the_sum_filtered_product():
    for total in range(5):
        for parts in range(1, 5):
            expected = [c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total]
            assert list(_compositions(total, parts)) == expected


# vertex count -> graphs, from perfbench/corpus_counts.json (an enumeration apart from the program)
CORPUS_COUNTS = {
    (2, 2, 4): {1: 3, 2: 11, 3: 15, 4: 7},
    (1, 4, 4): {1: 2, 2: 22, 3: 50, 4: 30},
    (3, 2, 5): {1: 4, 2: 28, 3: 80, 4: 118, 5: 88},
    (2, 3, 5): {1: 3, 2: 28, 3: 76, 4: 84, 5: 33},
}


@pytest.mark.parametrize("gnk", sorted(CORPUS_COUNTS))
def test_corpus_counts_and_no_isomorphic_pair(gnk):
    corpus = enumerate_tree_type_graphs(*gnk)
    counts = {}
    for G in corpus:
        counts[len(G.vertices)] = counts.get(len(G.vertices), 0) + 1
    assert counts == CORPUS_COUNTS[gnk]
    keys = [permutation_key(G) for G in corpus]
    assert len(set(keys)) == len(keys)
