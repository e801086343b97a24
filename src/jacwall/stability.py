"""Stability parameters for degree g-1 sheaves, their polytopes, and the twist action.

A stability parameter is stored by its two-vertex coordinates: the exact
rational value phi+(i, S) it assigns to the S side of the two-vertex graph of
each admissible pair.  Those coordinates determine a unique compatible vertex
assignment on every graph of loop-free circuit rank 0, computed here by
subtree sums.  All arithmetic is exact; parameters on a wall are representable
but every polytope-dependent operation rejects them with the wall named.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from collections.abc import Iterable, Mapping, Sequence

from .errors import (
    DegenerateParameter,
    DegreeSumMismatch,
    EmptyOrFullSubset,
    GraphMismatch,
    InadmissiblePair,
    InvalidParameter,
    NonAmple,
    repr_text,
    sorted_text,
    sum_text,
)
from .graphs import (
    BoundaryPair,
    MarkedGraph,
    RootedTree,
    _as_frozenset,
    _as_iterable,
    _as_mapping,
    _Value,
    admissible_pairs,
    check_gn,
    contract,
    crossing_edge_indices,
    genus,
    pair_index,
    rooted_tree,
    side_sums,
)

HALF = Fraction(1, 2)


def _as_fraction(value) -> Fraction:
    """An exact rational from an int (not a bool) or a Fraction, which is returned unchanged."""
    if type(value) is Fraction:
        return value
    if type(value) is not int:
        raise InvalidParameter(f"expected an int or a Fraction, got {repr_text(value)}")
    return Fraction(value)


class _PairVector(_Value):
    """One value per admissible pair of (g, n), held as ``values`` in `admissible_pairs` order.

    Subclasses give ``_noun`` and ``_checked``, which checks the values the public constructor takes.
    """

    def __init__(self, g: int, n: int, by_pair: Mapping[BoundaryPair, object]):
        check_gn(g, n)
        values = self._checked(_as_mapping(by_pair, self._noun))
        pairs, index = admissible_pairs(g, n), pair_index(g, n)
        if set(values) != set(index):  # sets made from dicts reuse the stored hashes
            missing = [str(p) for p in pairs if p not in values]
            stray = [str(p) for p in values if p not in index]
            raise InvalidParameter(
                f"{self._noun} must cover exactly the admissible pairs of (g,n)=({g},{n});"
                f" missing {missing}, stray {stray}"
            )
        self.g = g
        self.n = n
        self.values = tuple(map(values.__getitem__, pairs))

    @property
    def pairs(self) -> tuple[BoundaryPair, ...]:
        return admissible_pairs(self.g, self.n)

    def _key(self):
        return (self.g, self.n, self.values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{v}" for p, v in zip(self.pairs, self.values))
        return f"{type(self).__name__}(g={self.g}, n={self.n}, {{{inner}}})"


class StabilityParameter(_PairVector):
    """An element of the stability space, stored by its coordinates phi+(i, S), each an int or a Fraction."""

    _noun = "coordinates"

    @staticmethod
    def _checked(coords: Mapping[BoundaryPair, Fraction]) -> dict[BoundaryPair, Fraction]:
        return {pair: _as_fraction(c) for pair, c in coords.items()}

    def phi_plus(self, pair: BoundaryPair) -> Fraction:
        k = pair_index(self.g, self.n).get(pair)
        if k is None:
            raise InadmissiblePair(f"{pair} is not admissible for (g,n)=({self.g},{self.n})")
        return self.values[k]

    def phi_minus(self, pair: BoundaryPair) -> Fraction:
        return self.g - 1 - self.phi_plus(pair)


class PolytopeLabel(_PairVector):
    """The integer vector d(i, S) naming a stability polytope."""

    _noun = "label"

    @staticmethod
    def _checked(label: Mapping[BoundaryPair, int]) -> dict[BoundaryPair, int]:
        for pair, d in label.items():
            if type(d) is not int:
                raise InvalidParameter(f"label values must be integers, got {repr_text(d)} at {pair}")
        return dict(label)

    @property
    def label(self) -> Mapping[BoundaryPair, int]:
        return MappingProxyType(dict(zip(self.pairs, self.values)))


class GraphParameter(_Value):
    """A vertex assignment on one graph summing to g - 1, each value an int or a Fraction."""

    def __init__(self, graph: MarkedGraph, values: Mapping[str, Fraction]):
        vals = {v: _as_fraction(c) for v, c in _as_mapping(values, "values").items()}
        if set(vals) != set(graph.vertices):
            raise GraphMismatch("values must be defined on exactly the vertices of the graph")
        total = sum(vals.values())
        target = genus(graph) - 1
        if total != target:
            raise InvalidParameter(f"values must sum to g-1 = {target}, got {sum_text(total)}")
        self.graph = graph
        self.values: Mapping[str, Fraction] = MappingProxyType(vals)

    def value(self, v: str) -> Fraction:
        return self.values[v]

    def subset_sum(self, subset: Iterable[str]) -> Fraction:
        try:
            return sum((self.values[v] for v in subset), Fraction(0))
        except (KeyError, TypeError):  # a non-vertex or unhashable member, or no iterable at all
            V0 = _as_frozenset(subset, "subset", GraphMismatch)
            raise GraphMismatch(f"subset {sorted_text(V0)} contains non-vertices") from None

    @cached_property
    def _tree_sums(self) -> tuple[RootedTree, dict[str, Fraction]]:
        """The rank-0 walk from the graph's first vertex and the values summed over each subtree."""
        tree = rooted_tree(self.graph)
        return tree, tree.totals(self.values)

    def _key(self):
        return (self.graph, tuple(map(self.values.__getitem__, self.graph.vertices)))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}:{self.values[v]}" for v in self.graph.vertices)
        return f"GraphParameter({{{inner}}})"


# -- walls and labels ----------------------------------------------------------


def _wall_hit(value: Fraction):
    """The integer d with value == d + 1/2, or None when value is off every wall."""
    shifted = value - HALF
    if shifted.denominator == 1:
        return int(shifted)
    return None


def first_wall(phi: StabilityParameter):
    """The first wall (pair, d) the parameter lies on, in canonical pair order, or None."""
    for pair, value in zip(phi.pairs, phi.values):
        d = _wall_hit(value)
        if d is not None:
            return pair, d
    return None


def polytope_label(phi: StabilityParameter) -> PolytopeLabel:
    """The polytope containing phi: d(i, S) is the integer nearest to phi+(i, S)."""
    wall = first_wall(phi)
    if wall is not None:
        pair, d = wall
        raise DegenerateParameter(
            f"parameter lies on wall H({pair}, d={d}): phi+{pair} = {phi.phi_plus(pair)}"
            f" sits between labels d={d} and d={d + 1}",
            pair=pair,
            d=d,
        )
    return PolytopeLabel._of(g=phi.g, n=phi.n, values=tuple(math.floor(value + HALF) for value in phi.values))


# -- constructors ----------------------------------------------------------------


def side_degrees(g: int, n: int, degrees: Sequence[int]) -> tuple[tuple[int, ...], list[int]]:
    """The checked degree vector, and its partial sum d_S over each admissible pair (i, S) in pair order."""
    check_gn(g, n)
    degrees = tuple(_as_iterable(degrees, "degrees", DegreeSumMismatch))
    if len(degrees) != n or not all(type(d) is int for d in degrees):
        raise DegreeSumMismatch(f"expected {n} integer degrees, got {repr_text(degrees)}")
    if sum(degrees) != g - 1:
        raise DegreeSumMismatch(f"degrees must sum to g-1 = {g - 1}, got {sum_text(sum(degrees))}")
    return degrees, side_sums(g, n, degrees)


def phi_from_degrees(g: int, n: int, degrees: Sequence[int]) -> StabilityParameter:
    """The integral parameter with phi+(i, S) equal to the partial sum d_S.

    This is the parameter under which the line bundle twisted by the degree
    vector along the markings is stable; it is always nondegenerate.
    """
    return StabilityParameter._of(g=g, n=n, values=tuple(map(Fraction, side_degrees(g, n, degrees)[1])))


def phi_from_label(label: PolytopeLabel) -> StabilityParameter:
    """An interior point of the named polytope: phi+(i, S) = d(i, S) exactly."""
    return StabilityParameter._of(g=label.g, n=label.n, values=tuple(map(Fraction, label.values)))


def canonical_parameter(g: int, n: int) -> StabilityParameter:
    """Half the dualizing multidegree: phi+(i, S) = i - 1/2 on every pair.

    Lies on every wall family, so it is degenerate whenever any admissible
    pair exists; it corresponds to classical slope stability.
    """
    check_gn(g, n)
    return StabilityParameter._of(g=g, n=n, values=tuple(pair.i - HALF for pair in admissible_pairs(g, n)))


def dualizing_degree(G: MarkedGraph, v: str) -> int:
    """Degree of the dualizing sheaf on the component of v: 2 g(v) - 2 + valence."""
    return 2 * G.genus_of[v] - 2 + G.valence[v]


def phi_from_slope(
    G: MarkedGraph, A: Mapping[str, int], M: Mapping[str, int] | None = None
) -> GraphParameter:
    """The vertex assignment equivalent to slope stability for the polarization A twisted by M.

    values(v) = (A(v)/deg A) deg M + deg_v(omega)/2 - M(v).  A must be a positive
    int on every vertex; M takes int values on vertices, and missing entries default to 0.
    """
    A, M = _as_mapping(A, "polarization A"), dict(_as_mapping({} if M is None else M, "twist M"))
    if not M.keys() <= G.genus_of.keys():
        raise GraphMismatch(f"twist M must be given on vertices of the graph only, got {repr_text(M)}")
    if not A.keys() <= G.genus_of.keys():
        raise GraphMismatch(f"polarization A must be given on vertices of the graph only, got {repr_text(A)}")
    for v in G.vertices:
        a, m = A.get(v), M.get(v, 0)
        if type(a) is not int or a <= 0:
            raise NonAmple(f"polarization must be a positive integer on every vertex, got {repr_text(a)} at {v}")
        if type(m) is not int:
            raise InvalidParameter(f"twist M must be an integer on every vertex, got {repr_text(m)} at {v}")
    deg_a = sum(A[v] for v in G.vertices)
    deg_m = sum(M.get(v, 0) for v in G.vertices)
    values = {
        v: Fraction(A[v], deg_a) * deg_m + Fraction(dualizing_degree(G, v), 2) - M.get(v, 0)
        for v in G.vertices
    }
    return GraphParameter(G, values)


# -- seeded samplers ---------------------------------------------------------------


def random_parameter(rng: random.Random, g: int, n: int) -> StabilityParameter:
    """A nondegenerate parameter with coordinates p/q in [-3, 3], q <= 10."""
    coords = []
    for _ in admissible_pairs(g, n):
        while True:
            q = rng.randint(1, 10)
            value = Fraction(rng.randint(-3 * q, 3 * q), q)
            if _wall_hit(value) is None:
                coords.append(value)
                break
    return StabilityParameter._of(g=g, n=n, values=tuple(coords))


def random_degrees(rng: random.Random, g: int, n: int) -> tuple[int, ...]:
    """A degree vector with entries in [-3, 4] summing to g - 1."""
    while True:
        degrees = [rng.randint(-3, 4) for _ in range(n)]
        degrees[-1] = (g - 1) - sum(degrees[:-1])
        if -3 <= degrees[-1] <= 4:
            return tuple(degrees)


# -- extension to graphs ---------------------------------------------------------


def extend_to_graph(phi: StabilityParameter, G: MarkedGraph) -> GraphParameter:
    """The unique vertex assignment on a rank-0 graph compatible with all contractions.

    On the spanning tree walked from the first vertex, the sum over each
    descendant subtree is prescribed by the coordinate of the boundary pair
    its parent edge cuts out; vertex values are recovered as subtree-sum
    differences.  The result keeps the walk and sums, which the multidegree routines read.
    """
    tree = rooted_tree(G)
    if genus(G) != phi.g or G.n != phi.n:
        raise GraphMismatch(f"graph has (g,n)=({genus(G)},{G.n}) but parameter has ({phi.g},{phi.n})")
    sums = {tree.order[0]: Fraction(phi.g - 1)}
    for v in tree.order[1:]:
        pair, below = tree.cut(v)
        sums[v] = phi.phi_plus(pair) if below else phi.phi_minus(pair)
    return GraphParameter._of(graph=G, values=MappingProxyType(tree.differences(sums)), _tree_sums=(tree, sums))


def check_compatibility(pG: GraphParameter, edge_indices: Iterable[int], pH: GraphParameter) -> bool:
    """True when pH equals the pushforward of pG along the contraction of the given edges."""
    H, vertex_map = contract(pG.graph, edge_indices)
    if H != pH.graph:
        raise GraphMismatch("second parameter does not live on the contracted graph")
    sums = {w: Fraction(0) for w in H.vertices}
    for v, value in pG.values.items():
        sums[vertex_map[v]] += value
    return all(pH.value(w) == sums[w] for w in H.vertices)


# -- wall functionals --------------------------------------------------------------


def ell(pG: GraphParameter, subset: Iterable[str], d: int) -> Fraction:
    """The affine functional d - phi(subset) + (#crossing edges)/2 whose zero locus is a wall."""
    if type(d) is not int:
        raise InvalidParameter(f"d must be an integer, got {repr_text(d)}")
    V0 = _as_frozenset(subset, "subset", GraphMismatch)
    G = pG.graph
    if not V0 <= set(G.vertices):
        raise GraphMismatch(f"subset {sorted_text(V0)} contains non-vertices")
    if not V0 or V0 == frozenset(G.vertices):
        raise EmptyOrFullSubset("the subset must be proper and nonempty")
    crossing = len(crossing_edge_indices(G, V0))
    return d - pG.subset_sum(V0) + Fraction(crossing, 2)


# -- flatness and reducedness -------------------------------------------------------


def is_theta_flat(phi: StabilityParameter) -> bool:
    """True when the polytope of phi touches the canonical parameter: every d(i, S) is i-1 or i.

    Exactly these polytopes give a theta divisor that is flat over the moduli
    space, and they all share one divisor class.
    """
    label = polytope_label(phi)
    return all(d in (pair.i - 1, pair.i) for pair, d in zip(label.pairs, label.values))


def is_theta_reduced(phi: StabilityParameter) -> bool:
    """True when the polytope of phi is adjacent (coordinatewise) to a flat one."""
    label = polytope_label(phi)
    return all(pair.i - 2 <= d <= pair.i + 1 for pair, d in zip(label.pairs, label.values))


# -- twist action --------------------------------------------------------------------


def _check_twist(g: int, n: int, twist: Mapping[BoundaryPair, int]) -> list[int]:
    """The twist as a dense coefficient list in `admissible_pairs(g, n)` order."""
    index = pair_index(g, n)
    out = [0] * len(admissible_pairs(g, n))
    for pair, t in _as_mapping(twist, "twist").items():
        if pair not in index:
            raise InadmissiblePair(f"twist supported on inadmissible pair {pair}")
        if type(t) is not int:
            raise InvalidParameter(f"twist coefficients must be integers, got {repr_text(t)}")
        out[index[pair]] = t
    return out


def twist_label(label: PolytopeLabel, twist: Mapping[BoundaryPair, int]) -> PolytopeLabel:
    """Translate a polytope label by a boundary twist: d'(i, S) = d(i, S) + t(i, S).

    A positive coefficient is one copy of the boundary line bundle raising the
    S-side degree by 1; missing pairs act trivially.
    """
    t = _check_twist(label.g, label.n, twist)
    return PolytopeLabel._of(g=label.g, n=label.n, values=tuple(d + s for d, s in zip(label.values, t)))


def connecting_twist(label1: PolytopeLabel, label2: PolytopeLabel) -> dict[BoundaryPair, int]:
    """The unique twist carrying the first polytope to the second: t = d2 - d1."""
    if (label1.g, label1.n) != (label2.g, label2.n):
        raise InvalidParameter("labels live over different (g, n)")
    return {pair: d2 - d1 for pair, d1, d2 in zip(label1.pairs, label1.values, label2.values)}


def twist_parameter(phi: StabilityParameter, twist: Mapping[BoundaryPair, int]) -> StabilityParameter:
    """Translate a parameter coordinatewise by an integer twist (phi+ += t)."""
    t = _check_twist(phi.g, phi.n, twist)
    return StabilityParameter._of(g=phi.g, n=phi.n, values=tuple(c + s for c, s in zip(phi.values, t)))
