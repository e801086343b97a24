"""Seeded random generators, reference walks and independent oracles shared by the unit and acceptance tests."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from jacwall import (
    BoundaryPair,
    DivisorClass,
    GraphParameter,
    MarkedGraph,
    StabilityParameter,
    TorsionFreeDegree,
    admissible_pairs,
    crossing_edge_indices,
    genus,
    partial_degree,
)
from jacwall.graphs import _checked_pair, _tree_code
from jacwall.stability import random_degrees, random_parameter  # noqa: F401  (re-exported)

GN_SET = ((1, 2), (2, 1), (2, 2), (3, 2), (3, 3))


def random_degenerate_direction(rng: random.Random, g: int, n: int) -> StabilityParameter:
    """A parameter sitting on at least one wall (used for error-path checks)."""
    coords = {pair: Fraction(0) for pair in admissible_pairs(g, n)}
    pairs = admissible_pairs(g, n)
    on_wall = pairs[rng.randrange(len(pairs))]
    coords[on_wall] = rng.randint(-2, 2) + Fraction(1, 2)
    return StabilityParameter(g, n, coords)


def all_degree_vectors(g: int, n: int, lo: int = -3, hi: int = 4):
    """Every degree vector with entries in [lo, hi] summing to g - 1."""
    for head in itertools.product(range(lo, hi + 1), repeat=n - 1):
        last = (g - 1) - sum(head)
        if lo <= last <= hi:
            yield head + (last,)


def random_sheaf(rng: random.Random, G: MarkedGraph, failure_rate: float = 0.35) -> TorsionFreeDegree:
    """A torsion-free degree vector with a random failure set, totalling g - 1."""
    failures = frozenset(i for i in range(len(G.edges)) if rng.random() < failure_rate)
    target = genus(G) - 1 - len(failures)
    verts = G.vertices
    values = [rng.randint(-2, 2) for _ in verts[:-1]]
    values.append(target - sum(values))
    return TorsionFreeDegree(G, dict(zip(verts, values)), failures)


def random_edge_subsets(rng: random.Random, edge_count: int, samples: int) -> list[list[int]]:
    """Nonempty edge-index subsets: every singleton plus `samples` random draws."""
    subsets = [[i] for i in range(edge_count)]
    if edge_count == 0:
        return []
    pool = list(range(edge_count))
    for _ in range(samples):
        subsets.append(rng.sample(pool, rng.randint(1, edge_count)))
    return subsets


# -- large rank-0 graphs and a reference for their edge cuts ----------------------

TREE_SHAPES = ("path", "caterpillar", "recursive")


def random_tree_graph(rng: random.Random, shape: str, k: int) -> MarkedGraph:
    """A rank-0 graph on k vertices: a path, a caterpillar or a random recursive tree.

    Genera are 0 or 1, a vertex carries a loop with probability 0.3, markings
    1..n (n <= 3) sit on random vertices, and every genus-0 vertex that would
    be unstable gets one more loop.
    """
    ids = [f"v{v:03d}" for v in range(k)]
    if shape == "path":
        tree = [(v, v + 1) for v in range(k - 1)]
    elif shape == "caterpillar":
        spine = (k + 1) // 2
        tree = [(v, v + 1) for v in range(spine - 1)]
        tree += [(rng.randrange(spine), v) for v in range(spine, k)]
    else:
        tree = [(rng.randrange(v), v) for v in range(1, k)]
    edges = [(ids[a], ids[b]) for a, b in tree]
    markings = {j: ids[rng.randrange(k)] for j in range(1, rng.randint(1, 3) + 1)}
    genera = {v: rng.randint(0, 1) for v in ids}
    special = {v: 0 for v in ids}
    for v in [a for edge in edges for a in edge] + list(markings.values()):
        special[v] += 1
    for v in ids:
        loops = 1 if rng.random() < 0.3 else 0
        if genera[v] == 0 and special[v] + 2 * loops < 3:
            loops += 1
        edges += [(v, v)] * loops
    return MarkedGraph(genera, edges, markings)


def reference_side(G: MarkedGraph, edge_index: int) -> frozenset[str]:
    """The side of a non-loop edge holding marking 1: drop the edge and search from that marking."""
    adjacency: dict[str, list[str]] = {v: [] for v in G.vertices}
    for i, (a, b) in enumerate(G.edges):
        if i != edge_index and a != b:
            adjacency[a].append(b)
            adjacency[b].append(a)
    start = G.marking_of[1]
    seen = {start}
    stack = [start]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def reference_pair(G: MarkedGraph, side: frozenset[str]) -> BoundaryPair:
    """The pair (i, S) of a vertex side: genera plus loops, and the markings on it."""
    i = sum(G.genus_of[v] + G.loops_at[v] for v in side)
    return BoundaryPair(i, frozenset(j for j, v in G.marking_of.items() if v in side))


def reference_contract(G: MarkedGraph, edge_indices) -> tuple[MarkedGraph, dict[str, str]]:
    """Contraction by union-find, each class rooted at its smallest id: the graph and the vertex map.

    A class of m vertices holding c contracted edges gets genus sum(g_v) + c - (m - 1).
    """
    parent = {v: v for v in G.vertices}

    def find(v: str) -> str:
        while parent[v] != v:
            v = parent[v]
        return v

    contracted = set(edge_indices)
    for i in contracted:
        a, b = sorted(map(find, G.edges[i]))
        parent[b] = a
    vertex_map = {v: find(v) for v in G.vertices}
    members: dict[str, list[str]] = {}
    for v, root in vertex_map.items():
        members.setdefault(root, []).append(v)
    inside = dict.fromkeys(members, 0)
    for i in contracted:
        inside[vertex_map[G.edges[i][0]]] += 1
    genera = {
        root: sum(G.genus_of[v] for v in group) + inside[root] - (len(group) - 1)
        for root, group in members.items()
    }
    edges = [(vertex_map[a], vertex_map[b]) for i, (a, b) in enumerate(G.edges) if i not in contracted]
    markings = {j: vertex_map[v] for j, v in G.marking_of.items()}
    return MarkedGraph(genera, edges, markings), vertex_map


def permutation_key(G: MarkedGraph) -> tuple:
    """Isomorphism key of a marked graph: the minimum over all vertex renumberings.

    For each permutation p of the vertex indices it takes the sorted edges,
    the genera in new vertex order and the vertex of each marking; this costs
    k! and serves as the reference for the corpus generator's tree codes.
    """
    index = {v: i for i, v in enumerate(G.vertices)}
    edges = [(index[a], index[b]) for a, b in G.edges]
    marks = [index[G.marking_of[j]] for j in range(1, G.n + 1)]
    keys = []
    for p in itertools.permutations(range(len(index))):
        genera = [0] * len(index)
        for v, i in index.items():
            genera[p[i]] = G.genus_of[v]
        keys.append((
            tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in edges)),
            tuple(genera),
            tuple(p[m] for m in marks),
        ))
    return min(keys)


def reference_tree_shapes(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Trees on 0..k-1 up to isomorphism, the first of each shape among all (k-1)! recursive trees.

    A recursive tree hangs each vertex v > 0 from some u < v, with the parent
    choices taken in lexicographic order; numbering the vertices of any tree in
    breadth-first order makes it recursive, so every shape is met.
    """
    shapes: dict[tuple, tuple[tuple[int, int], ...]] = {}
    for parents in itertools.product(*(range(v) for v in range(1, k))):
        edges = tuple(zip(parents, range(1, k)))
        shapes.setdefault(_tree_code(k, edges, [0] * k), edges)
    return tuple(shapes.values())


# -- the class formulas, pair by pair ------------------------------------------------


def _c2(m: int) -> int:
    return m * (m - 1) // 2


def reference_classes(phi: StabilityParameter, degrees) -> dict:
    """Every class formula of a parameter and a degree vector, summing d_S over S pair by pair.

    Gives coefficient tuples in basis order (lambda, psi_j, delta_irr, delta
    in pair order) under "phi_d", "pullback", "stable-pairs", "hain" and, when
    some degree is negative, "mueller" and "mueller_diff"; "T" (or None) and
    "twist" as a pair-to-coefficient dict.  The label is the integer nearest
    each coordinate, and "every degree on S is positive" is tested per marking.
    """
    g, n = phi.g, phi.n
    pairs = admissible_pairs(g, n)
    side = [sum(degrees[j - 1] for j in sorted(pair.S)) for pair in pairs]
    label = [math.floor(value + Fraction(1, 2)) for value in phi.values]
    head = (Fraction(-1),) + tuple(Fraction(_c2(d + 1)) for d in degrees)

    def form(delta_irr, delta) -> tuple:
        return head + (Fraction(delta_irr),) + tuple(map(Fraction, delta))

    pairs_delta = [-_c2(d_s - p.i + 1) for p, d_s in zip(pairs, side)]
    out = {
        "phi_d": tuple(map(Fraction, side)),
        "pullback": form(0, [_c2(d - p.i + 1) + c for p, d, c in zip(pairs, label, pairs_delta)]),
        "stable-pairs": form(0, pairs_delta),
        "hain": form(Fraction(1, 8), pairs_delta),
        "twist": {p: d_s - d for p, d_s, d in zip(pairs, side, label)},
        "T": None,
    }
    if any(d < 0 for d in degrees):
        positive = [all(degrees[j - 1] > 0 for j in p.S) for p in pairs]
        out["mueller"] = form(0, [
            -_c2(abs(d_s - p.i) + 1) if pos else c for p, d_s, pos, c in zip(pairs, side, positive, pairs_delta)
        ])
        out["T"] = [p for p, d_s, pos in zip(pairs, side, positive) if pos and d_s < p.i]
        t_set = set(out["T"])
        out["mueller_diff"] = (Fraction(0),) * (n + 2) + tuple(
            Fraction(p.i - d_s if p in t_set else 0) for p, d_s in zip(pairs, side)
        )
    return out


# -- the two-sided stability form and the unit wall crossing -------------------------


def failure_crossings(F: TorsionFreeDegree, subset: frozenset[str]) -> int:
    """Number of failure nodes joining the subset to its complement."""
    G = F.graph
    return sum(1 for i in F.failures if (G.edges[i][0] in subset) != (G.edges[i][1] in subset))


def symmetric_inequality(pG: GraphParameter, F: TorsionFreeDegree, subset: frozenset[str], strict: bool) -> bool:
    """The two-sided form on one subgraph, equivalent to the lower bound on both sides.

    |deg_{V0}(F) - phi(V0) + delta/2| <= (#crossing - delta)/2, where delta
    counts failure nodes crossing the subset.
    """
    delta = failure_crossings(F, subset)
    crossing = len(crossing_edge_indices(pG.graph, subset))
    lhs = abs(partial_degree(F, subset) - pG.subset_sum(subset) + Fraction(delta, 2))
    rhs = Fraction(crossing - delta, 2)
    return lhs < rhs if strict else lhs <= rhs


def wall_crossing_single(g: int, n: int, pair: BoundaryPair, d: int) -> DivisorClass:
    """Change of the theta class when crossing one wall, from label d-1 to label d: (d-i) delta_(i,S)."""
    _checked_pair(g, n, pair)
    return DivisorClass(g, n, delta={pair: d - pair.i})
