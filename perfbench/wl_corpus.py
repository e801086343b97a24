"""`corpus` workload: every graph enumerate_tree_type_graphs yields for a few small (g, n).

A round generates the corpus for each (g, n, max vertices) of
corpus_counts.CORPUS_SPEC inside the timed phase (every verification sweep
pays for it), then runs one item per graph with its own seeded off-wall
parameter: extend_to_graph, stable_multidegree,
all_stable_multidegrees_bruteforce(strict=True) and is_semistable(strict=True)
in both modes.  The generation calls are timed operations but not items.
"""

from __future__ import annotations

import random

import corpus_counts
import oracles
from harness import Op

LARGEST_RUNG = "k5"


def graph_form(G):
    """The graph as vertices 0..k-1, for the canonical form and for round-to-round equality."""
    vertices, genera, loops, tree_edges, markings = oracles.graph_data(G)
    index = {v: i for i, v in enumerate(vertices)}
    return (
        len(vertices),
        tuple(sorted((min(index[a], index[b]), max(index[a], index[b])) for a, b in tree_edges)),
        tuple(genera[v] for v in vertices),
        tuple(loops[v] for v in vertices),
        tuple(index[markings[j]] for j in range(1, len(markings) + 1)),
    )


class Corpus:
    largest_rung = LARGEST_RUNG

    def __init__(self):
        self.expected = corpus_counts.load()
        self.reference = {}

    def plain_round(self, seed: int, r: int):
        rng = random.Random(f"corpus:{seed}:{r}")
        out = []
        for g, n, kmax in corpus_counts.CORPUS_SPEC:
            size = sum(self.expected[(g, n, k)] for k in range(1, kmax + 1))
            out.append((g, n, kmax, [oracles.random_coords(rng, g, n) for _ in range(size)]))
        return out

    def build_round(self, lib, plain):
        return [
            (g, n, kmax, oracles.build_parameters(lib, g, n, coords_list))
            for g, n, kmax, coords_list in plain
        ]

    def warmup(self, lib, inputs):
        g, n, kmax, params = inputs[0]
        for G, phi in zip(lib.graphs.enumerate_tree_type_graphs(g, n, kmax), params):
            self._item(lib, phi, G)

    @staticmethod
    def _item(lib, phi, G):
        st, md = lib.stability, lib.multidegrees
        pG = st.extend_to_graph(phi, G)
        degree = md.stable_multidegree(pG)
        brute = md.all_stable_multidegrees_bruteforce(pG, strict=True)
        elementary = md.is_semistable(pG, degree, strict=True, mode="elementary")
        every = md.is_semistable(pG, degree, strict=True, mode="all")
        return degree, brute, elementary, every

    def round_ops(self, lib, inputs):
        for g, n, kmax, params in inputs:
            graphs = yield Op(None, lambda g=g, n=n, kmax=kmax: lib.graphs.enumerate_tree_type_graphs(g, n, kmax), item=False)
            if graphs is None:
                return
            for index, G in enumerate(graphs):
                phi = params[index % len(params)]
                yield Op(f"k{len(G.vertices)}", lambda phi=phi, G=G: self._item(lib, phi, G))

    def check_round(self, lib, inputs, segments):
        failed = 0
        problems = []
        spec = iter(corpus_counts.CORPUS_SPEC)
        for seg in segments:
            if seg.error is not None:
                failed += 1
                continue
            if not seg.op.item:
                problems += self._check_corpus(next(spec), seg.output)
                continue
            degree, brute, elementary, every = seg.output
            if [m.as_tuple() for m in brute] != [degree.as_tuple()]:
                problems.append(f"{seg.op.rung}: brute-force strict stable set is not [stable_multidegree]")
            if elementary is not True or every is not True:
                problems.append(f"{seg.op.rung}: is_semistable modes give {elementary} / {every}, expected True")
        return failed, problems

    def _check_corpus(self, gnk, graphs) -> list[str]:
        g, n, kmax = gnk
        forms = [graph_form(G) for G in graphs]
        reference = self.reference.get(gnk)
        if reference is not None:
            # Earlier rounds were checked in full; the generator is deterministic.
            return [] if forms == reference else [f"corpus {gnk} differs from the first round"]
        problems = []
        by_k = {}
        canon = set()
        for k, tree_edges, genera, loops, places in forms:
            by_k[k] = by_k.get(k, 0) + 1
            markings = {j + 1: v for j, v in enumerate(places)}
            if (
                len(tree_edges) != k - 1
                or len(places) != n
                or sum(genera) + sum(loops) != g
                or not oracles.is_stable_tree(dict(enumerate(genera)), dict(enumerate(loops)), markings, tree_edges)
            ):
                problems.append(f"corpus {gnk}: a graph is not a stable rank-0 graph of type ({g},{n})")
                break
            try:
                oracles.rooted(range(k), tree_edges, 0)
            except ValueError:
                problems.append(f"corpus {gnk}: a graph is not connected")
                break
            canon.add(oracles.canonical_form(k, tree_edges, genera, loops, places))
        expected = {k: self.expected[(g, n, k)] for k in range(1, kmax + 1)}
        if {k: by_k.get(k, 0) for k in expected} != expected or len(forms) != sum(expected.values()):
            problems.append(f"corpus {gnk}: counts per vertex count {by_k} != {expected}")
        if len(canon) != len(forms):
            problems.append(f"corpus {gnk}: {len(forms) - len(canon)} graphs are isomorphic to another")
        if not problems:
            self.reference[gnk] = forms
        return problems

    def counts(self, plain) -> dict:
        vertices = subsets = pairs = 0
        for g, n, kmax, coords_list in plain:
            for k in range(1, kmax + 1):
                c = self.expected[(g, n, k)]
                vertices += c * k
                subsets += c * ((2 * (k - 1)) + (2**k - 2))
            pairs += len(coords_list) * len(oracles.admissible_pairs(g, n))
        return {"graphs.vertices": vertices, "multidegrees.is_semistable.subsets": subsets,
                "stability.pairs": pairs}

    def close(self):
        pass
