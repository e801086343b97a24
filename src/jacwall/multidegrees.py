"""Multidegrees of degree g-1 sheaves and their stability against a vertex parameter.

A rank-1 torsion-free sheaf is recorded by the set of nodes (edges) where it
fails to be locally free and its degrees on the partial normalization there;
a line bundle is the sheaf with no such nodes.  Stability is the system of
partial-degree lower bounds against the parameter.  Testing elementary
subgraphs is equivalent to testing all of them: at rank 0 it is one O(V)
pass of subtree sums, otherwise both routes enumerate vertex subsets.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    DegenerateParameter,
    DegreeSumMismatch,
    EmptySubset,
    GraphMismatch,
    InvalidGraph,
    MalformedInput,
    repr_text,
    sorted_text,
    sum_text,
)
from .graphs import (
    MarkedGraph,
    _as_frozenset,
    _as_iterable,
    _as_mapping,
    _checked_edge_index,
    _proper_subsets,
    _Value,
    crossing_edge_indices,
    elementary_subgraphs,
    genus,
    loop_free_circuit_rank,
)
from .stability import HALF, GraphParameter, _wall_hit


class TorsionFreeDegree(_Value):
    """A rank-1 torsion-free sheaf of total degree g - 1, by normalization degrees and failure nodes.

    ``failures`` is a set of edge indices; the sum of the normalization
    degrees plus the failure count must equal g - 1.  A line bundle is the
    sheaf with no failures, and ``deg`` is then its multidegree.
    """

    def __init__(self, graph: MarkedGraph, norm_deg: Mapping[str, int], failures: Iterable[int] = ()):
        values = dict(_as_mapping(norm_deg, "norm_deg", DegreeSumMismatch))
        if set(values) != set(graph.vertices):
            raise GraphMismatch("degrees must be defined on exactly the vertices of the graph")
        for v, d in values.items():
            if type(d) is not int:
                raise DegreeSumMismatch(f"degrees must be integers, got {repr_text(d)} at {v}")
        fail = frozenset(_checked_edge_index(graph, i) for i in _as_iterable(failures, "failures", InvalidGraph))
        target = genus(graph) - 1
        if sum(values.values()) + len(fail) != target:
            raise DegreeSumMismatch(
                f"normalization degrees plus failures must equal g-1 = {target},"
                f" got {sum_text(sum(values.values()))} + {len(fail)}"
            )
        self.graph = graph
        self.deg = MappingProxyType(values)
        self.failures = fail

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.deg[v] for v in self.graph.vertices)

    def _key(self):
        return (self.graph, self.as_tuple(), self.failures)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}:{self.deg[v]}" for v in self.graph.vertices)
        return f"TorsionFreeDegree({{{inner}}}, failures={sorted_text(self.failures)})"


Multidegree = TorsionFreeDegree


def partial_degree(F: TorsionFreeDegree, subset: Iterable[str]) -> int:
    """Degree of the maximal torsion-free quotient on a subcurve.

    Sums the normalization degrees over the subset and counts the failure
    edges internal to it (a failure loop is internal to its vertex).
    """
    V0 = _as_frozenset(subset, "subset", GraphMismatch)
    if not V0:
        raise EmptySubset("partial degrees need a nonempty vertex subset")
    G = F.graph
    if not V0 <= set(G.vertices):
        raise GraphMismatch(f"subset {sorted_text(V0)} contains non-vertices")
    internal = sum(
        1 for i in F.failures if G.edges[i][0] in V0 and G.edges[i][1] in V0
    )
    return sum(F.deg[v] for v in V0) + internal


def stability_inequality(pG: GraphParameter, F: TorsionFreeDegree, subset: frozenset[str], strict: bool) -> bool:
    """The lower-bound form on one subgraph: deg_{V0}(F) >= phi(V0) - (#crossing)/2."""
    bound = pG.subset_sum(subset) - Fraction(len(crossing_edge_indices(pG.graph, subset)), 2)
    lhs = partial_degree(F, subset)
    return lhs > bound if strict else lhs >= bound


def is_semistable(pG: GraphParameter, F: TorsionFreeDegree, strict: bool = False, mode: str = "elementary") -> bool:
    """Whether the sheaf satisfies the stability bound on every subgraph of the chosen mode.

    mode="elementary" checks only subgraphs with connected complement on both
    sides, which suffices, in one O(V) subtree-sum pass at rank 0; mode="all",
    and rank > 0, enumerate vertex subsets.  The two modes agree on all inputs;
    tests/test_multidegrees.py checks that at rank 0 and, in
    test_elementary_equals_all_modes_on_positive_rank, at rank > 0.
    """
    if not isinstance(F, TorsionFreeDegree):
        raise GraphMismatch(f"F must be a TorsionFreeDegree, got {repr_text(F)}")
    if F.graph != pG.graph:
        raise GraphMismatch("sheaf and parameter live on different graphs")
    if mode == "elementary":
        if loop_free_circuit_rank(pG.graph) == 0:
            return _is_semistable_on_tree(pG, F, strict)
        subsets = elementary_subgraphs(pG.graph)
    elif mode == "all":
        subsets = _proper_subsets(pG.graph)
    else:
        raise MalformedInput(f"mode must be 'elementary' or 'all', got {repr_text(mode)}")
    return all(stability_inequality(pG, F, subset, strict) for subset in subsets)


def _is_semistable_on_tree(pG: GraphParameter, F: TorsionFreeDegree, strict: bool) -> bool:
    """The elementary test at rank 0, where v's parent edge alone joins v's subtree T to the rest.

    With f = 1 when that edge is a failure, and both totals g - 1, the bounds
    on the two sides read phi(T) - 1/2 <= deg(T) <= phi(T) + 1/2 - f.
    """
    tree, phi = pG._tree_sums
    degree = dict(F.deg)
    for i in F.failures:  # counted at the child end of its edge, or at the vertex of its loop
        degree[max(pG.graph.edges[i], key=tree.position.__getitem__)] += 1
    deg = tree.totals(degree)
    for v in tree.order[1:]:
        f = int(tree.parent[v][0] in F.failures)
        lo, hi, d = phi[v] - HALF, phi[v] + HALF - f, deg[v] - f
        if not (lo < d < hi if strict else lo <= d <= hi):
            return False
    return True


def stable_multidegree(pG: GraphParameter) -> Multidegree:
    """The unique stable line-bundle multidegree on a rank-0 graph.

    Rooting the spanning tree at the first vertex (pG keeps that walk and its
    sums), the partial degree on every descendant subtree is forced to the
    integer nearest its parameter sum; per-vertex degrees are the subtree
    differences.  Raises DegenerateParameter when some subtree sum is half-odd.
    """
    G = pG.graph
    tree, subtree_sum = pG._tree_sums

    walls = [v for v in tree.order[1:] if _wall_hit(subtree_sum[v]) is not None]
    if walls:
        # Name the first wall in breadth-first order: the shallowest, then first in preorder.
        depth = {tree.order[0]: 0}
        for v in tree.order[1:]:
            depth[v] = depth[tree.parent[v][1]] + 1
        v = min(walls, key=depth.__getitem__)
        s = subtree_sum[v]
        pair, below = tree.cut(v)
        d = _wall_hit(s if below else genus(G) - 1 - s)
        raise DegenerateParameter(
            f"subtree sum {s} is half-odd: parameter lies on wall H({pair}, d={d})",
            pair=pair,
            d=d,
        )

    rounded = {v: math.floor(s + HALF) for v, s in subtree_sum.items()}
    return Multidegree._of(graph=G, deg=MappingProxyType(tree.differences(rounded)), failures=frozenset())


def all_stable_multidegrees_bruteforce(pG: GraphParameter, strict: bool = False) -> list[Multidegree]:
    """Every (semi)stable line-bundle multidegree, by exhaustive search.

    The search box comes from the singleton-subgraph inequalities (degree of
    each vertex within half its non-loop valence of its parameter value),
    widened by one on each side for safety.  The search runs over the box of
    every vertex but the last in lexicographic order; the degree sum g - 1
    fixes the last entry, which must lie in its own box.  Each candidate is
    filtered by the full-subgraph stability test, so the results come out
    sorted by degree tuple.  This is deliberately independent of
    `stable_multidegree` and `is_semistable`.
    """
    G = pG.graph
    verts = G.vertices
    k = len(verts)
    total = genus(G) - 1

    lo = []
    hi = []
    for v in verts:
        half_spread = Fraction(G.valence[v] - 2 * G.loops_at[v], 2)
        lo.append(math.ceil(pG.value(v) - half_spread) - 1)
        hi.append(math.floor(pG.value(v) + half_spread) + 1)

    # Clear denominators once so the inner loop is pure integer arithmetic:
    # deg(V0) >= phi(V0) - cross/2 becomes scale*deg(V0) >= threshold(V0).
    scale = 2 * math.lcm(*(pG.value(v).denominator for v in verts))
    phi_scaled = [int(pG.value(v) * scale) for v in verts]
    subsets = []
    for r in range(1, k):
        for combo in itertools.combinations(range(k), r):
            subset = frozenset(verts[i] for i in combo)
            crossing = len(crossing_edge_indices(G, subset))
            threshold = sum(phi_scaled[i] for i in combo) - (scale // 2) * crossing
            subsets.append((combo, threshold))

    def admits(degs: tuple[int, ...]) -> bool:
        for combo, threshold in subsets:
            s = 0
            for i in combo:
                s += degs[i]
            s *= scale
            if s < threshold or (strict and s == threshold):
                return False
        return True

    found = []
    for head in itertools.product(*(range(lo[i], hi[i] + 1) for i in range(k - 1))):
        degs = head + (total - sum(head),)
        if lo[-1] <= degs[-1] <= hi[-1] and admits(degs):
            found.append(Multidegree(G, dict(zip(verts, degs))))
    return found
