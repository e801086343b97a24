"""`trees` workload: rank-0 graphs of 10, 50 and 200 vertices.

Shapes are paths, caterpillars and random recursive trees; genera, loops and
the places of n <= 3 markings are seeded, and every genus-0 vertex is made
stable by a loop.  The parameter is a seeded off-wall point for the graph's
own (g, n), with phi+(i, S) = i + x, x in [-3, 3].  Each item runs
extend_to_graph, stable_multidegree, is_semistable(strict=True), then
contract on a seeded sample of 3 tree edges, extend_to_graph on the
contracted graph and check_compatibility.

A round holds, for each of the three shapes, 1 graph of 200 vertices, 5 of
50 and 14 of 10, so the median falls near the 70th percentile of the
10-vertex items and the 90th percentile near the 80th of the 50-vertex
items, away from the gaps between rungs.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles
from harness import Op

SHAPES = ("path", "caterpillar", "recursive")
ROUND = (("v200", 200, 1), ("v50", 50, 5), ("v10", 10, 14))
LARGEST_RUNG = "v200"
CONTRACTED_EDGES = 3


def tree_edges(rng, shape: str, k: int) -> list[tuple[int, int]]:
    if shape == "path":
        return [(v, v + 1) for v in range(k - 1)]
    if shape == "caterpillar":
        spine = (k + 1) // 2
        edges = [(v, v + 1) for v in range(spine - 1)]
        return edges + [(rng.randrange(spine), v) for v in range(spine, k)]
    return [(rng.randrange(v), v) for v in range(1, k)]


def plain_graph(rng, shape: str, k: int):
    """Vertex ids, genera, loops, tree edges, markings and a parameter, as plain data."""
    ids = [f"v{v:03d}" for v in range(k)]
    edges = [(ids[a], ids[b]) for a, b in tree_edges(rng, shape, k)]
    n = rng.randint(1, 3)
    markings = {j: ids[rng.randrange(k)] for j in range(1, n + 1)}
    genera = {v: rng.randint(0, 1) for v in ids}
    loops = {v: 1 if rng.random() < 0.3 else 0 for v in ids}
    valence = {v: 0 for v in ids}
    for a, b in edges:
        valence[a] += 1
        valence[b] += 1
    for j, v in markings.items():
        valence[v] += 1
    for v in ids:
        if genera[v] == 0 and valence[v] + 2 * loops[v] < 3:
            loops[v] += 1
    g = sum(genera.values()) + sum(loops.values())
    coords = oracles.random_coords(rng, g, n, centred=True)
    sample = rng.sample(range(k - 1), CONTRACTED_EDGES)
    return {
        "ids": ids, "genera": genera, "loops": loops, "edges": edges,
        "markings": markings, "g": g, "n": n, "coords": coords, "sample": sample,
    }


class Trees:
    largest_rung = LARGEST_RUNG

    def plain_round(self, seed: int, r: int):
        rng = random.Random(f"trees:{seed}:{r}")
        items = []
        for rung, k, count in ROUND:
            for c in range(count):
                for shape in SHAPES:
                    items.append((rung, shape, plain_graph(rng, shape, k)))
        # Spread the large items through the round.
        random.Random(f"trees-order:{seed}:{r}").shuffle(items)
        return items

    def build_round(self, lib, plain):
        out = []
        for rung, shape, data in plain:
            all_edges = list(data["edges"]) + [
                (v, v) for v in data["ids"] for _ in range(data["loops"][v])
            ]
            G = lib.graphs.MarkedGraph(data["genera"], all_edges, data["markings"])
            (phi,) = oracles.build_parameters(lib, data["g"], data["n"], [data["coords"]])
            sample = [G.nonloop_indices[p] for p in data["sample"]]
            out.append((rung, data, G, phi, sample))
        return out

    def warmup(self, lib, inputs):
        seen = set()
        for rung, data, G, phi, sample in inputs:
            if rung not in seen:
                seen.add(rung)
                self._item(lib, G, phi, sample)

    @staticmethod
    def _item(lib, G, phi, sample):
        st, md = lib.stability, lib.multidegrees
        pG = st.extend_to_graph(phi, G)
        degree = md.stable_multidegree(pG)
        stable = md.is_semistable(pG, degree, strict=True)
        H, vertex_map = lib.graphs.contract(G, sample)
        pH = st.extend_to_graph(phi, H)
        compatible = st.check_compatibility(pG, sample, pH)
        return pG, degree, stable, H, compatible

    def round_ops(self, lib, inputs):
        for rung, data, G, phi, sample in inputs:
            yield Op(rung, lambda G=G, phi=phi, sample=sample: self._item(lib, G, phi, sample))

    def check_round(self, lib, inputs, segments):
        failed = 0
        problems = []
        moved_checked = set()
        for seg, (rung, data, G, phi, sample) in zip(segments, inputs):
            if seg.error is not None:
                failed += 1
                continue
            pG, degree, stable, H, compatible = seg.output
            found = self._check_item(data, pG, degree, stable, H, compatible)
            # A degree moved across one edge must break stability; this costs one
            # more is_semistable call, so it is made on the first item of each rung.
            if rung not in moved_checked:
                moved_checked.add(rung)
                found += self._check_moved(lib, data, G, pG, degree)
            problems += [f"{rung} item: {p}" for p in found]
        return failed, problems

    @staticmethod
    def _check_item(data, pG, degree, stable, H, compatible):
        problems = []
        g = data["g"]
        parent, order, sides = oracles.edge_sides(
            data["genera"], data["loops"], data["markings"], data["edges"]
        )
        values = {v: pG.value(v) for v in data["ids"]}
        degs = {v: degree.deg[v] for v in data["ids"]}
        if sum(values.values()) != g - 1 or sum(degs.values()) != g - 1:
            problems.append("parameter or degree does not sum to g - 1")
        sub_value = oracles.subtree_sums(parent, order, values.__getitem__)
        sub_degree = oracles.subtree_sums(parent, order, degs.__getitem__)
        for p, v, pair in sides:
            side_value = (g - 1) - sub_value[v]
            if side_value != data["coords"].get(pair):
                problems.append(f"parameter on the marking-1 side of {p}-{v} is not phi+{pair}")
                break
            side_degree = (g - 1) - sub_degree[v]
            if abs(side_degree - side_value) >= Fraction(1, 2):
                problems.append(f"degree on the marking-1 side of {p}-{v} is not within 1/2")
                break
        if stable is not True:
            problems.append("the stable multidegree is not strictly semistable")
        if compatible is not True:
            problems.append("the contracted parameter is not the pushforward")
        if len(H.vertices) != len(data["ids"]) - CONTRACTED_EDGES:
            problems.append("contraction has the wrong vertex count")
        if sum(H.genus_of.values()) + sum(1 for a, b in H.edges if a == b) != g:
            problems.append("contraction changed the genus")
        return problems

    @staticmethod
    def _check_moved(lib, data, G, pG, degree):
        a, b = data["edges"][data["sample"][0]]
        moved = dict(degree.deg)
        moved[a] -= 1
        moved[b] += 1
        F = lib.multidegrees.Multidegree(G, moved)
        if lib.multidegrees.is_semistable(pG, F, strict=True):
            return [f"a degree moved across {a}-{b} is still semistable"]
        return []

    def counts(self, plain) -> dict:
        vertices = subsets = pairs = 0
        for rung, shape, data in plain:
            k = len(data["ids"])
            vertices += k + (k - CONTRACTED_EDGES)
            subsets += 2 * (k - 1)
            pairs += len(data["coords"])
        return {"graphs.vertices": vertices, "multidegrees.is_semistable.subsets": subsets,
                "stability.pairs": pairs}

    def close(self):
        pass
