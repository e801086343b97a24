"""Recomputations made apart from the program, used to check its outputs.

Nothing here imports jacwall; the two adapters at the end only read or
build program objects handed to them.  Boundary pairs are plain tuples (i, mask) with
bit j-1 of mask set for marking j in S; divisor classes are dicts from basis
keys ("lam",), ("psi", j), ("irr",) and ("delta", i, mask) to nonzero
Fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

HALF = Fraction(1, 2)


def binom2(m: int) -> int:
    return m * (m - 1) // 2


def admissible_pairs(g: int, n: int) -> list[tuple[int, int]]:
    """All (i, mask) with marking 1 in S that index a boundary divisor of M_{g,n}."""
    out = []
    for i in range(g + 1):
        for mask in range(1, 1 << n, 2):
            size = bin(mask).count("1")
            if i == g and size > n - 2:
                continue
            if i == 0 and size < 2:
                continue
            out.append((i, mask))
    return out


def mask_of(S) -> int:
    return sum(1 << (j - 1) for j in S)


def marks(mask: int) -> list[int]:
    return [j + 1 for j in range(mask.bit_length()) if mask >> j & 1]


def is_half_odd(x: Fraction) -> bool:
    return (x - HALF).denominator == 1


def nearest_int(x: Fraction) -> int:
    return math.floor(x + HALF)


def random_offwall(rng, lo: int, hi: int, qmax: int = 10) -> Fraction:
    while True:
        q = rng.randint(1, qmax)
        x = Fraction(rng.randint(lo * q, hi * q), q)
        if not is_half_odd(x):
            return x


def random_coords(rng, g: int, n: int, spread: int = 3, centred: bool = False) -> dict:
    """Off-wall coordinates in [-spread, spread] (shifted by i when centred)."""
    return {
        (i, mask): (i if centred else 0) + random_offwall(rng, -spread, spread)
        for i, mask in admissible_pairs(g, n)
    }


def random_degrees(rng, g: int, n: int, negative: bool = False) -> tuple[int, ...]:
    """Degrees in [-3, 4] summing to g - 1, with a negative entry when asked."""
    while True:
        degrees = [rng.randint(-3, 4) for _ in range(n)]
        degrees[-1] = (g - 1) - sum(degrees[:-1])
        if -3 <= degrees[-1] <= 4 and (not negative or min(degrees) < 0):
            return tuple(degrees)


def degree_sum(degrees, mask: int) -> int:
    return sum(degrees[j - 1] for j in marks(mask))


# -- divisor classes -----------------------------------------------------------------


def clean(cls: dict) -> dict:
    return {k: Fraction(v) for k, v in cls.items() if v != 0}


def add(a: dict, b: dict, cb: Fraction = Fraction(1)) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + cb * v
    return clean(out)


def wall_crossing(g: int, n: int, label1: dict, label2: dict) -> dict:
    """Sum of unit wall crossings: crossing from label d-1 to d adds (d - i) delta_(i,S)."""
    out = {}
    for (i, mask), d1 in label1.items():
        d2 = label2[(i, mask)]
        c = sum(d - i for d in range(d1 + 1, d2 + 1)) - sum(d - i for d in range(d2 + 1, d1 + 1))
        out[("delta", i, mask)] = Fraction(c)
    return clean(out)


def pair_steps(label1: dict, label2: dict) -> int:
    """P x unit steps between two labels: the work of wall_crossing's stepped self-check."""
    return len(label1) * sum(abs(label2[p] - label1[p]) for p in label1)


def label_of(coords: dict) -> dict:
    return {pair: nearest_int(x) for pair, x in coords.items()}


def degree_label(g: int, n: int, degrees) -> dict:
    """The label of the integral parameter of a degree vector: d(i, S) = d_S."""
    return {(i, mask): degree_sum(degrees, mask) for i, mask in admissible_pairs(g, n)}


def pullback_at_degrees(n: int, degrees) -> dict:
    """The theta pullback at the degree vector's own parameter: no boundary terms."""
    cls = {("lam",): Fraction(-1)}
    for j in range(1, n + 1):
        cls[("psi", j)] = Fraction(binom2(degrees[j - 1] + 1))
    return clean(cls)


def pullback(g: int, n: int, coords: dict, degrees) -> dict:
    """theta(phi) = theta(phi_d) + W(phi_d, phi), by the wall-crossing theorem."""
    return add(
        pullback_at_degrees(n, degrees),
        wall_crossing(g, n, degree_label(g, n, degrees), label_of(coords)),
    )


def stable_pairs(g: int, n: int, degrees) -> dict:
    """theta at the flat label d(i, S) = i."""
    flat = {pair: pair[0] for pair in admissible_pairs(g, n)}
    return add(
        pullback_at_degrees(n, degrees), wall_crossing(g, n, degree_label(g, n, degrees), flat)
    )


def mueller_t(g: int, n: int, degrees) -> list[tuple[int, int]]:
    """Pairs with every degree on S positive and d_S < i."""
    return [
        (i, mask)
        for i, mask in admissible_pairs(g, n)
        if all(degrees[j - 1] > 0 for j in marks(mask)) and degree_sum(degrees, mask) < i
    ]


# -- rank-0 graphs ---------------------------------------------------------------------


def rooted(vertices, tree_edges, root):
    """Parent map and BFS order of a tree given by its non-loop edges."""
    adjacency = {v: [] for v in vertices}
    for a, b in tree_edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parent = {root: None}
    order = [root]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in adjacency[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    if len(order) != len(vertices):
        raise ValueError("tree edges do not connect the vertices")
    return parent, order


def subtree_sums(parent, order, value) -> dict:
    sums = {v: value(v) for v in order}
    for v in reversed(order[1:]):
        sums[parent[v]] += sums[v]
    return sums


def edge_sides(genera, loops, markings, tree_edges):
    """For each tree edge (parent, child) from marking 1: the pair (i, mask) of its marking-1 side
    and the child's subtree (the other side), found by one BFS from the vertex of marking 1.

    ``markings`` maps marking j to its vertex.  Returns (parent map, order, list of
    (parent, child, pair)).
    """
    root = markings[1]
    parent, order = rooted(list(genera), tree_edges, root)
    sub_genus = subtree_sums(parent, order, lambda v: genera[v] + loops[v])
    mask_at = {v: 0 for v in genera}
    for j, v in markings.items():
        mask_at[v] |= 1 << (j - 1)
    sub_mask = {v: 0 for v in genera}
    for v in reversed(order):
        sub_mask[v] |= mask_at[v]
        if parent[v] is not None:
            sub_mask[parent[v]] |= sub_mask[v]
    total_genus = sub_genus[root]
    all_mask = sub_mask[root]
    sides = []
    for v in order[1:]:
        pair = (total_genus - sub_genus[v], all_mask & ~sub_mask[v])
        sides.append((parent[v], v, pair))
    return parent, order, sides


def is_stable_tree(genera, loops, markings, tree_edges) -> bool:
    valence = {v: 2 * loops[v] for v in genera}
    for a, b in tree_edges:
        valence[a] += 1
        valence[b] += 1
    count = {v: 0 for v in genera}
    for v in markings.values():
        count[v] += 1
    return all(genera[v] > 0 or valence[v] + count[v] >= 3 for v in genera)


def canonical_form(k: int, tree_edges, genera, loops, mark_list):
    """Minimum over all k! vertex permutations of (sorted edges, genera, loops, marking places).

    Vertices are 0..k-1; ``mark_list[j]`` is the vertex of marking j+1.  Two
    decorated trees are isomorphic exactly when their forms are equal.
    """
    best = None
    for p in itertools.permutations(range(k)):
        inv = [0] * k
        for old, new in enumerate(p):
            inv[new] = old
        key = (
            tuple(sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in tree_edges)),
            tuple(genera[inv[v]] for v in range(k)),
            tuple(loops[inv[v]] for v in range(k)),
            tuple(p[m] for m in mark_list),
        )
        if best is None or key < best:
            best = key
    return best


def graph_data(G):
    """(vertex list, genera, loops, tree edges, markings) read from a MarkedGraph's public views."""
    vertices = list(G.vertices)
    genera = {v: G.genus_of[v] for v in vertices}
    loops = {v: 0 for v in vertices}
    tree_edges = []
    for a, b in G.edges:
        if a == b:
            loops[a] += 1
        else:
            tree_edges.append((a, b))
    markings = dict(G.marking_of)
    return vertices, genera, loops, tree_edges, markings


# -- adapters to program objects --------------------------------------------------------


def pair_key(pair) -> tuple[int, int]:
    """(i, mask) of a program BoundaryPair."""
    return (pair.i, mask_of(pair.S))


def build_parameters(lib, g: int, n: int, coords_list) -> list:
    """Program StabilityParameters at (g, n), one per dict of (i, mask) coordinates."""
    pairs = {pair_key(p): p for p in lib.graphs.admissible_pairs(g, n)}
    return [
        lib.stability.StabilityParameter(g, n, {pairs[key]: x for key, x in coords.items()})
        for coords in coords_list
    ]
