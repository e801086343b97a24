"""Stable marked dual graphs: invariants, contractions, and boundary combinatorics.

A marked graph is the combinatorial shadow of a nodal curve: vertices carry
nonnegative genera, edges are nodes (loops allowed), and markings 1..n are
assigned to vertices.  Everything here is immutable and pure, so all
operations are safe to call concurrently.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property, lru_cache
from types import MappingProxyType

from .errors import (
    InadmissiblePair,
    InvalidGN,
    InvalidGraph,
    InvalidParameter,
    JacwallError,
    LoopEdge,
    NotTreeLike,
    repr_text,
    sorted_text,
    sum_text,
)

Edge = tuple[str, str]


def check_gn(g: int, n: int) -> None:
    """Validate a (genus, marking count) pair, raising InvalidGN otherwise."""
    if type(g) is not int or type(n) is not int:  # not isinstance: bool is an int subclass
        raise InvalidGN(f"g and n must be integers, got g={repr_text(g)}, n={repr_text(n)}")
    if g < 0:
        raise InvalidGN(f"genus must be nonnegative, got g={g}")
    if n < 1:
        raise InvalidGN(f"at least one marking is required, got n={n}")
    if g == 0 and n < 3:
        raise InvalidGN(f"genus 0 requires n >= 3, got n={n}")


class _Value:
    """Value semantics for the library's value types: each subclass gives ``_key()`` alone.

    Two values are equal when they have the same type and the same key, and
    equal values hash alike.  ``_of(**fields)`` builds an instance from fields
    that are already checked, never from outside input, skipping ``__init__``.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @classmethod
    def _of(cls, **fields):
        out = cls.__new__(cls)
        out.__dict__.update(fields)
        return out


def _as_mapping(value, name: str, error: type[JacwallError] = InvalidParameter) -> Mapping:
    """value itself when it is a mapping; error naming the argument otherwise."""
    if not isinstance(value, Mapping):
        raise error(f"{name} must be a mapping, got {repr_text(value)}")
    return value


def _as_iterable(value, name: str, error: type[JacwallError]) -> Iterable:
    """value itself when it is iterable; error naming the argument otherwise."""
    if not isinstance(value, Iterable):
        raise error(f"{name} must be iterable, got {repr_text(value)}")
    return value


def _as_frozenset(value, name: str, error: type[JacwallError]) -> frozenset:
    """frozenset(value) when value is iterable with hashable members; error naming the argument otherwise."""
    try:
        return frozenset(_as_iterable(value, name, error))
    except TypeError:  # an unhashable member
        raise error(f"{name} must hold hashable values, got {repr_text(value)}") from None


class BoundaryPair(_Value):
    """Index (i, S) of a boundary divisor: a genus-i side carrying the markings S, with 1 in S."""

    __slots__ = ("i", "S")

    def __init__(self, i: int, S: Iterable[int]) -> None:
        S = _as_frozenset(S, "S", InadmissiblePair)
        if not all(type(j) is int and j >= 1 for j in S):
            raise InadmissiblePair(f"markings must be positive integers, got {sorted_text(S)}")
        if 1 not in S:
            raise InadmissiblePair(f"marking 1 must lie on the S side, got S={sorted_text(S)}")
        if type(i) is not int or i < 0:
            raise InadmissiblePair(f"side genus must be a nonnegative integer, got i={repr_text(i)}")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "S", S)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"BoundaryPair fields cannot be set or deleted, got {repr_text(name)}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return BoundaryPair, (self.i, self.S)  # copy and pickle rebuild through __init__, not __setattr__

    def _key(self):
        return (self.i, self.S)

    def __repr__(self) -> str:
        return f"BoundaryPair(i={repr_text(self.i)}, S={repr_text(self.S)})"

    def is_admissible(self, g: int, n: int) -> bool:
        """True when (i, S) indexes a boundary divisor of the genus-g, n-marked moduli space."""
        if not 0 <= self.i <= g:
            return False
        if not self.S <= frozenset(range(1, n + 1)):
            return False
        if self.i == g and len(self.S) > n - 2:
            return False
        if self.i == 0 and len(self.S) < 2:
            return False
        return True

    def __str__(self) -> str:
        return "({},{{{}}})".format(sum_text(self.i), ",".join(sum_text(j) for j in sorted(self.S)))


def normalize_pair(g: int, n: int, i: int, markings: Iterable[int]) -> BoundaryPair:
    """Return the admissible pair for the side (i, markings), flipping to the side with marking 1.

    A side not containing marking 1 is replaced by its complement (g - i, S^c).
    Raises InadmissiblePair when the normalized pair is not admissible.
    """
    check_gn(g, n)
    if type(i) is not int:  # before the complement below turns a bool into an int
        raise InadmissiblePair(f"side genus must be a nonnegative integer, got i={repr_text(i)}")
    S = _as_frozenset(markings, "markings", InadmissiblePair)
    all_marks = frozenset(range(1, n + 1))
    if not S <= all_marks:
        raise InadmissiblePair(f"markings {sorted_text(S)} not contained in 1..{n}")
    if 1 not in S:
        i, S = g - i, all_marks - S
    return _checked_pair(g, n, BoundaryPair(i, S))


def _checked_pair(g: int, n: int, pair: BoundaryPair) -> BoundaryPair:
    """The pair itself, after checking (g, n) and that the pair is admissible there."""
    check_gn(g, n)
    if not pair.is_admissible(g, n):
        raise InadmissiblePair(f"pair {pair} is not admissible for (g,n)=({g},{n})")
    return pair


class MarkedGraph(_Value):
    """An immutable connected stable marked graph.

    Vertices are string ids with nonnegative genera.  Edges form a multiset of
    unordered id pairs, stored sorted so that every edge is addressed by its
    index into ``edges`` (this keeps parallel edges and loops unambiguous).
    Markings 1..n map to vertex ids.

    Construction validates connectedness and stability: every genus-0 vertex
    must have valence (loops counted twice) plus markings at least 3.
    """

    def __init__(
        self,
        genera: Mapping[str, int],
        edges: Iterable[Sequence[str]],
        markings: Mapping[int, str],
    ):
        genus_of = dict(_as_mapping(genera, "genera", InvalidGraph))
        if not genus_of:
            raise InvalidGraph("a graph needs at least one vertex")
        for v, gv in genus_of.items():
            if not isinstance(v, str) or not v:
                raise InvalidGraph(f"vertex ids must be nonempty strings, got {repr_text(v)}")
            if type(gv) is not int or gv < 0:
                raise InvalidGraph(f"genus of {v} must be a nonnegative integer, got {repr_text(gv)}")

        edge_list: list[Edge] = []
        for e in _as_iterable(edges, "edges", InvalidGraph):
            try:
                a, b = e
            except (TypeError, ValueError):
                raise InvalidGraph(f"an edge needs exactly two endpoints, got {repr_text(e)}") from None
            if not (isinstance(a, str) and isinstance(b, str) and a in genus_of and b in genus_of):
                raise InvalidGraph(f"edge ({repr_text(a)},{repr_text(b)}) has an unknown endpoint")
            edge_list.append((a, b) if a <= b else (b, a))
        edge_list.sort()

        marking_of = {}
        for j, v in dict(_as_mapping(markings, "markings", InvalidGraph)).items():
            if type(j) is not int:
                raise InvalidGraph(f"marking labels must be integers, got {repr_text(j)}")
            if not isinstance(v, str) or v not in genus_of:
                raise InvalidGraph(f"marking {j} placed on unknown vertex {repr_text(v)}")
            marking_of[j] = v
        n = len(marking_of)
        if set(marking_of) != set(range(1, n + 1)) or n < 1:
            raise InvalidGraph(f"markings must be exactly 1..n, got {sorted_text(marking_of)}")

        self.genus_of: Mapping[str, int] = MappingProxyType(genus_of)
        self.edges: tuple[Edge, ...] = tuple(edge_list)
        self.marking_of: Mapping[int, str] = MappingProxyType(marking_of)

        self._check_connected()
        self._check_stable()

    # -- derived views ------------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        return tuple(sorted(self.genus_of))

    @property
    def n(self) -> int:
        return len(self.marking_of)

    @cached_property
    def valence(self) -> Mapping[str, int]:
        """Incident edge count per vertex, loops counted twice."""
        val = {v: 0 for v in self.genus_of}
        for a, b in self.edges:
            val[a] += 1
            val[b] += 1
        return MappingProxyType(val)

    @cached_property
    def loops_at(self) -> Mapping[str, int]:
        counts = {v: 0 for v in self.genus_of}
        for a, b in self.edges:
            if a == b:
                counts[a] += 1
        return MappingProxyType(counts)

    @cached_property
    def nonloop_indices(self) -> tuple[int, ...]:
        return tuple(i for i, (a, b) in enumerate(self.edges) if a != b)

    @cached_property
    def markings_at(self) -> Mapping[str, int]:
        counts = {v: 0 for v in self.genus_of}
        for v in self.marking_of.values():
            counts[v] += 1
        return MappingProxyType(counts)

    # -- validation ---------------------------------------------------------

    def _check_connected(self) -> None:
        if len(set(_components(self.genus_of, self.edges).values())) != 1:
            raise InvalidGraph("graph is not connected")

    def _check_stable(self) -> None:
        for v, gv in self.genus_of.items():
            if gv == 0 and self.valence[v] + self.markings_at[v] < 3:
                raise InvalidGraph(
                    f"unstable: genus-0 vertex {v} has valence {self.valence[v]} "
                    f"and {self.markings_at[v]} markings"
                )

    # -- value semantics ----------------------------------------------------

    def _key(self):
        return (tuple(sorted(self.genus_of.items())), self.edges, tuple(sorted(self.marking_of.items())))

    def __repr__(self) -> str:
        genera = ",".join(f"{v}:{g}" for v, g in sorted(self.genus_of.items()))
        return f"MarkedGraph({genera}; edges={list(self.edges)}; n={self.n})"


# -- invariants --------------------------------------------------------------


def genus(G: MarkedGraph) -> int:
    """Arithmetic genus: sum of vertex genera minus #vertices plus #edges plus 1."""
    return sum(G.genus_of.values()) - len(G.vertices) + len(G.edges) + 1


def loop_free_circuit_rank(G: MarkedGraph) -> int:
    """First Betti number after contracting all loops: #non-loop edges - #vertices + 1."""
    return len(G.nonloop_indices) - len(G.vertices) + 1


# -- contraction -------------------------------------------------------------


def _components(vertices: Iterable[str], edges: Iterable[Edge]) -> dict[str, str]:
    """Each vertex labelled by the smallest id of its component under the given edges."""
    adjacency: dict[str, list[str]] = {v: [] for v in vertices}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    # Walking from each unlabelled vertex in sorted order labels every component by its smallest id.
    label: dict[str, str] = {}
    for root in sorted(adjacency):
        if root in label:
            continue
        label[root] = root
        stack = [root]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in label:
                    label[w] = root
                    stack.append(w)
    return label


def _checked_edge_index(G: MarkedGraph, i) -> int:
    """i itself when it is an int indexing an edge of G; InvalidGraph naming it otherwise."""
    if type(i) is not int or not 0 <= i < len(G.edges):
        raise InvalidGraph(f"edge index {repr_text(i)} out of range for {len(G.edges)} edges")
    return i


def contract(G: MarkedGraph, edge_indices: Iterable[int]) -> tuple[MarkedGraph, dict[str, str]]:
    """Contract the given edges, returning the new graph and the vertex map.

    Non-loop edges merge their endpoints (genera add); loops disappear and add
    1 to the genus of their vertex, as does every contracted edge that has
    become a loop after earlier merges.  The merged vertex takes the
    lexicographically smallest constituent id, its `_components` label, so the
    vertex map is reproducible.  Edges outside the set are re-routed; parallel
    edges whose endpoints merge are retained as loops.
    """
    idxs = {_checked_edge_index(G, i) for i in _as_iterable(edge_indices, "edge_indices", InvalidGraph)}
    contracted = [G.edges[i] for i in idxs]
    label = _components(G.vertices, contracted)
    new_genera = dict.fromkeys(label.values(), 1)  # labels in sorted order, as the walk met them
    for v, root in label.items():
        new_genera[root] += G.genus_of[v] - 1
    for a, _ in contracted:
        new_genera[label[a]] += 1

    new_edges = [(label[a], label[b]) for i, (a, b) in enumerate(G.edges) if i not in idxs]
    new_markings = {j: label[v] for j, v in G.marking_of.items()}
    H = MarkedGraph(new_genera, new_edges, new_markings)
    vertex_map = {v: label[v] for v in G.vertices}
    return H, vertex_map


# -- boundary combinatorics ----------------------------------------------------


class RootedTree(namedtuple("RootedTree", "order position parent size genus marks")):
    """The spanning tree of a rank-0 graph, walked once from its first vertex (see `rooted_tree`).

    ``order`` is a preorder taking children in edge order, with ``position``
    of each vertex in it, so the subtree of v is ``size[v]`` long from there.
    ``parent`` maps every other vertex to the index of its parent edge and its
    parent vertex.  ``genus`` totals vertex genera plus loops over each subtree
    and ``marks`` its markings, as a bitmask with bit j - 1 for marking j;
    `totals` sums values over each subtree, and `differences` undoes it.
    """

    __slots__ = ()

    def subtree(self, v: str) -> frozenset[str]:
        k = self.position[v]
        return frozenset(self.order[k : k + self.size[v]])

    def totals(self, values: Mapping[str, object]) -> dict[str, object]:
        """Each vertex's value summed over its subtree, in one post-order pass."""
        total = dict(values)
        for v in reversed(self.order[1:]):
            total[self.parent[v][1]] += total[v]
        return total

    def differences(self, sums: Mapping[str, object]) -> dict[str, object]:
        """The inverse of `totals`: each vertex's subtree sum less those of its children."""
        value = dict(sums)
        for v in self.order[1:]:
            value[self.parent[v][1]] -= sums[v]
        return value

    def cut(self, v: str) -> tuple[BoundaryPair, bool]:
        """Pair (i, S) of the marking-1 side of v's parent edge, and whether it is v's subtree."""
        root = self.order[0]
        i, mask = self.genus[v], self.marks[v]
        below = bool(mask & 1)
        if not below:
            i, mask = self.genus[root] - i, self.marks[root] ^ mask
        pair = _pair_by_key(self.genus[root], self.marks[root].bit_length()).get((i, mask))
        if pair is None:
            raise InvalidGraph(f"edge {self.parent[v][0]} cuts out inadmissible side ({i}, {mask:#b})")
        return pair, below


def rooted_tree(G: MarkedGraph) -> RootedTree:
    """One depth-first walk over the spanning tree of a rank-0 graph from its first vertex, in O(V + E)."""
    rank = loop_free_circuit_rank(G)
    if rank != 0:
        raise NotTreeLike(f"the graph has loop-free circuit rank {rank}, not 0")
    root = G.vertices[0]
    adjacency: dict[str, list[tuple[int, str]]] = {v: [] for v in G.vertices}
    for i in reversed(G.nonloop_indices):  # so the stack pops children in edge order
        a, b = G.edges[i]
        adjacency[a].append((i, b))
        adjacency[b].append((i, a))
    parent: dict[str, tuple[int, str]] = {}
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for i, w in adjacency[v]:
            if w != root and w not in parent:
                parent[w] = (i, v)
                stack.append(w)

    size = dict.fromkeys(order, 1)
    genus_below = {v: G.genus_of[v] + G.loops_at[v] for v in order}
    marks = dict.fromkeys(order, 0)
    for j, v in G.marking_of.items():
        marks[v] |= 1 << (j - 1)
    for v in reversed(order[1:]):
        p = parent[v][1]
        size[p] += size[v]
        genus_below[p] += genus_below[v]
        marks[p] |= marks[v]
    return RootedTree(tuple(order), {v: k for k, v in enumerate(order)}, parent, size, genus_below, marks)


def boundary_pair_of_edge(G: MarkedGraph, edge_index: int) -> tuple[BoundaryPair, frozenset[str]]:
    """The boundary pair (i, S) cut out by a non-loop edge of a rank-0 graph.

    Removing the edge splits the vertices in two; the returned pair records
    the arithmetic genus (vertex genera plus loops) and markings of the side
    containing marking 1, which is also returned; both are read off the walk of `rooted_tree`.
    """
    tree = rooted_tree(G)
    a, b = G.edges[_checked_edge_index(G, edge_index)]
    if a == b:
        raise LoopEdge(f"edge {edge_index} is a loop at {a}")
    child = max((a, b), key=tree.position.__getitem__)  # a parent precedes its child in preorder
    pair, below = tree.cut(child)
    return pair, tree.subtree(child) if below else frozenset(G.vertices) - tree.subtree(child)


def two_vertex_graph(g: int, n: int, pair: BoundaryPair) -> MarkedGraph:
    """The two-vertex one-edge graph of type (i, S): genera (i, g-i), markings S on v1."""
    _checked_pair(g, n, pair)
    markings = {j: "v1" if j in pair.S else "v2" for j in range(1, n + 1)}
    return MarkedGraph({"v1": pair.i, "v2": g - pair.i}, [("v1", "v2")], markings)


@lru_cache(typed=True)  # typed, so that a cached (1, n) never answers (True, n)
def admissible_pairs(g: int, n: int) -> tuple[BoundaryPair, ...]:
    """All admissible pairs (i, S) in canonical order (by i, then S as a bitmask)."""
    check_gn(g, n)
    # The odd bitmasks are the sides S holding marking 1; increasing, they give the canonical order.
    sides = [frozenset(j + 1 for j in range(n) if mask >> j & 1) for mask in range(1, 1 << n, 2)]
    pairs = (BoundaryPair(i, S) for i in range(g + 1) for S in sides)
    return tuple(pair for pair in pairs if pair.is_admissible(g, n))


@lru_cache(typed=True)
def pair_index(g: int, n: int) -> dict[BoundaryPair, int]:
    """Position of each admissible pair in `admissible_pairs(g, n)`, the order of every pair vector."""
    return {pair: k for k, pair in enumerate(admissible_pairs(g, n))}


@lru_cache(typed=True)
def _pair_by_key(g: int, n: int) -> dict[tuple[int, int], BoundaryPair]:
    """The admissible pairs of (g, n) keyed by (i, S as a bitmask with bit j - 1 for marking j)."""
    return {(pair.i, sum(1 << (j - 1) for j in pair.S)): pair for pair in admissible_pairs(g, n)}


def side_sums(g: int, n: int, values: Sequence) -> list:
    """The sum of values[j - 1] over the markings j in S of each admissible pair (i, S), in pair order.

    One table over all 2^n marking masks is filled first: each mask sums to
    the mask without its lowest bit plus that bit's value.
    """
    table = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        table[m] = table[m ^ low] + values[low.bit_length() - 1]
    return [table[mask] for _, mask in _pair_by_key(g, n)]


# -- elementary subgraphs ------------------------------------------------------


def _subset_key(subset: frozenset[str]) -> tuple[int, tuple[str, ...]]:
    return (len(subset), tuple(sorted(subset)))


def _proper_subsets(G: MarkedGraph):
    """Every proper nonempty vertex subset, by size and then lexicographically (`_subset_key` order)."""
    for r in range(1, len(G.vertices)):
        for combo in itertools.combinations(G.vertices, r):
            yield frozenset(combo)


def _induced_connected(G: MarkedGraph, subset: frozenset[str]) -> bool:
    edges = [(a, b) for a, b in G.edges if a in subset and b in subset]
    return bool(subset) and len(set(_components(subset, edges).values())) == 1


def elementary_subgraphs_bruteforce(G: MarkedGraph) -> list[frozenset[str]]:
    """Every proper nonempty vertex subset inducing a connected subgraph with connected complement.

    This is the defining enumeration; `elementary_subgraphs` may dispatch to a
    faster equivalent path.
    """
    all_verts = frozenset(G.vertices)
    return [
        subset
        for subset in _proper_subsets(G)
        if _induced_connected(G, subset) and _induced_connected(G, all_verts - subset)
    ]


def elementary_subgraphs(G: MarkedGraph) -> list[frozenset[str]]:
    """Elementary subgraphs of G, using the two-sides-of-an-edge fast path at rank 0."""
    if loop_free_circuit_rank(G) != 0:
        return elementary_subgraphs_bruteforce(G)
    tree = rooted_tree(G)
    all_verts = frozenset(G.vertices)
    sides = [tree.subtree(v) for v in tree.order[1:]]
    return sorted(sides + [all_verts - side for side in sides], key=_subset_key)


def crossing_edge_indices(G: MarkedGraph, subset: frozenset[str]) -> tuple[int, ...]:
    """Indices of edges with exactly one endpoint in the subset (loops never cross)."""
    return tuple(i for i, (a, b) in enumerate(G.edges) if (a in subset) != (b in subset))


# -- corpus generator ----------------------------------------------------------


def _tree_code(k: int, edges: Iterable[tuple[int, int]], labels: Sequence) -> tuple:
    """The smallest Aho-Hopcroft-Ullman code of a vertex-labelled tree on 0..k-1 over all roots.

    Rooted at r the code is (labels[r], sorted codes of r's subtrees), so two
    trees get the same code exactly when a label-preserving isomorphism maps
    one onto the other.
    """
    adjacency: list[list[int]] = [[] for _ in range(k)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)

    def code(v: int, parent: int) -> tuple:
        return (labels[v], tuple(sorted(code(w, v) for w in adjacency[v] if w != parent)))

    return min(code(r, -1) for r in range(k))


def _tree_shapes(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Trees on vertices 0..k-1 up to isomorphism, as (parent, child) edge tuples with parent < child.

    Grown from the one-vertex tree: each size hangs a new vertex from every
    vertex of every shape kept at the size below, and keeps the first tree of
    each shape.  A tree on two or more vertices has a leaf, and removing it
    leaves a smaller tree, so every shape is met.  The order of the shapes
    fixes the corpus order, which `jacwall check` samples from.
    """
    shapes: tuple[tuple[tuple[int, int], ...], ...] = ((),)
    for size in range(1, k):
        grown: dict[tuple, tuple[tuple[int, int], ...]] = {}
        for tree in shapes:
            for u in range(size):
                edges = tree + ((u, size),)
                grown.setdefault(_tree_code(size + 1, edges, [0] * (size + 1)), edges)
        shapes = tuple(grown.values())
    return shapes


def _compositions(total: int, parts: int):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``, in lexicographic order."""
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))


def enumerate_tree_type_graphs(g: int, n: int, max_vertices: int) -> list[MarkedGraph]:
    """A corpus of stable marked graphs of genus g with n markings and rank 0.

    Covers, for each vertex count up to ``max_vertices``, every tree shape,
    every distribution of genera and loops, and every marking assignment,
    deduplicated up to isomorphism.  Intended as a test corpus; the
    enumeration cost grows quickly with ``max_vertices``.
    """
    check_gn(g, n)
    if type(max_vertices) is not int or max_vertices < 1:
        raise InvalidGN(f"max_vertices must be a positive integer, got {repr_text(max_vertices)}")

    out: list[MarkedGraph] = []
    for k in range(1, max_vertices + 1):
        seen: set[tuple] = set()
        for tree_edges in _tree_shapes(k):
            tree_valence = [sum(v in edge for edge in tree_edges) for v in range(k)]
            for split in _compositions(g, 2 * k):
                genera, loops = split[:k], split[k:]
                for marks in itertools.product(range(k), repeat=n):
                    marked: list[list[int]] = [[] for _ in range(k)]
                    for j, m in enumerate(marks):
                        marked[m].append(j)
                    if any(
                        genera[v] == 0
                        and tree_valence[v] + 2 * loops[v] + len(marked[v]) < 3
                        for v in range(k)
                    ):
                        continue
                    labels = [(genera[v], loops[v], tuple(marked[v])) for v in range(k)]
                    key = _tree_code(k, tree_edges, labels)
                    if key in seen:
                        continue
                    seen.add(key)
                    all_edges = list(tree_edges) + [(v, v) for v in range(k) for _ in range(loops[v])]
                    ids = [f"v{v + 1}" for v in range(k)]
                    out.append(
                        MarkedGraph(
                            {ids[v]: genera[v] for v in range(k)},
                            [(ids[a], ids[b]) for a, b in all_edges],
                            {j + 1: ids[marks[j]] for j in range(n)},
                        )
                    )
    return out
