"""Recompute the expected size of the `corpus` workload's graph corpus.

For each (g, n, k) of the corpus, counts the stable marked graphs of loop-free
circuit rank 0 with exactly k vertices, genus g and n markings, up to
isomorphism.  The enumeration is the benchmark's own: one tree per shape,
every split of g into vertex genera and loops, every placement of the
markings, deduplicated by the minimum over all k! vertex permutations.  It
shares no code with the program.

    python3 perfbench/corpus_counts.py          # rewrite corpus_counts.json
    python3 perfbench/corpus_counts.py --check  # compare with the stored file
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
COUNTS_FILE = HERE / "corpus_counts.json"
# (g, n, max vertices) of the corpus workload.
CORPUS_SPEC = ((2, 2, 4), (1, 4, 4), (3, 2, 5), (2, 3, 5), (3, 3, 5))


def prufer_trees(k: int):
    """Every labelled tree on 0..k-1, by decoding every Pruefer sequence."""
    if k == 1:
        yield []
        return
    for seq in itertools.product(range(k), repeat=k - 2):
        degree = [1] * k
        for x in seq:
            degree[x] += 1
        edges = []
        for x in seq:
            leaf = min(v for v in range(k) if degree[v] == 1)
            edges.append((min(leaf, x), max(leaf, x)))
            degree[leaf] -= 1
            degree[x] -= 1
        u, v = [w for w in range(k) if degree[w] == 1]
        edges.append((u, v))
        yield edges


def tree_shapes(k: int) -> list:
    shapes = {}
    zeros = [0] * k
    for edges in prufer_trees(k):
        key = oracles.canonical_form(k, edges, zeros, zeros, [])
        shapes.setdefault(key, edges)
    return list(shapes.values())


def splits(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in splits(total - first, parts - 1):
            yield (first,) + rest


def count(g: int, n: int, k: int) -> int:
    forms = set()
    for edges in tree_shapes(k):
        for split in splits(g, 2 * k):
            genera, loops = split[:k], split[k:]
            for places in itertools.product(range(k), repeat=n):
                if not oracles.is_stable_tree(
                    dict(enumerate(genera)), dict(enumerate(loops)),
                    dict(enumerate(places, start=1)), edges,
                ):
                    continue
                forms.add(oracles.canonical_form(k, edges, genera, loops, places))
    return len(forms)


def compute() -> list[dict]:
    return [
        {"g": g, "n": n, "k": k, "count": count(g, n, k)}
        for g, n, kmax in CORPUS_SPEC
        for k in range(1, kmax + 1)
    ]


def load() -> dict:
    """{(g, n, k): count} from the stored file."""
    rows = json.loads(COUNTS_FILE.read_text())
    return {(r["g"], r["n"], r["k"]): r["count"] for r in rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the stored file")
    args = parser.parse_args(argv)
    rows = compute()
    if args.check:
        stored = load()
        fresh = {(r["g"], r["n"], r["k"]): r["count"] for r in rows}
        if stored != fresh:
            print(f"stored counts differ: stored {stored}, recomputed {fresh}", file=sys.stderr)
            return 1
        print(f"{len(rows)} counts match")
        return 0
    COUNTS_FILE.write_text(json.dumps(rows, indent=1) + "\n")
    for r in rows:
        print(r)
    return 0


if __name__ == "__main__":
    sys.exit(main())
