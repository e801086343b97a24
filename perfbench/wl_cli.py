"""`cli` workload: in-process jacwall.cli.main(argv) calls with stdout and stderr captured.

A round makes the same calls every time: polytope, pullback, wall-cross and
compare at (g, n) in (1,2), (2,2), (3,3) with seeded degree vectors,
parameter and label files, stable-degree --verify on seeded 4- and
5-vertex graphs, and 10 calls with malformed, on-wall or wrong-shape input
whose correct result is their named exit code.  The input files are written
once, before set-up, into a scratch directory inside the checkout.

Three of the error calls fail today because of faults in the program's
input parsing, and count as failed until those are fixed:
F1  --from-degrees 1_0,-9 runs as degree 10 (int() accepts '_').
F2  a parameter file giving (1,{1}) and its complement spelling (1,{2})
    keeps the last value.
F3  a graph file with marking key "0_1" reads it as marking 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
from fractions import Fraction
from pathlib import Path

import oracles
from harness import Op

GN_LADDER = ((1, 2), (2, 2), (3, 3))
LARGEST_RUNG = "g3n3"
EXIT_MALFORMED, EXIT_DEGENERATE, EXIT_GRAPH_SHAPE, EXIT_PRECONDITION = 2, 3, 4, 5


def fmt(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parameter_json(g: int, n: int, coords: dict) -> dict:
    return {
        "g": g,
        "n": n,
        "coords": [
            {"i": i, "S": oracles.marks(mask), "phi_plus": fmt(x)} for (i, mask), x in coords.items()
        ],
    }


def random_graph(rng, g: int, n: int, k: int):
    """A seeded stable tree-like graph of type (g, n) on k vertices, as plain data."""
    while True:
        ids = [f"v{v + 1}" for v in range(k)]
        tree = [(ids[rng.randrange(v)], ids[v]) for v in range(1, k)]
        genera = {v: 0 for v in ids}
        loops = {v: 0 for v in ids}
        for _ in range(g):
            target = genera if rng.random() < 0.6 else loops
            target[rng.choice(ids)] += 1
        markings = {j: rng.choice(ids) for j in range(1, n + 1)}
        if oracles.is_stable_tree(genera, loops, markings, tree):
            return ids, genera, loops, tree, markings


def graph_json(ids, genera, loops, tree, markings) -> dict:
    edges = [list(e) for e in tree] + [[v, v] for v in ids for _ in range(loops[v])]
    return {
        "vertices": [{"id": v, "genus": genera[v]} for v in ids],
        "edges": edges,
        "markings": {str(j): v for j, v in markings.items()},
    }


def read_class(obj) -> dict:
    out = {("lam",): Fraction(obj["lambda"]), ("irr",): Fraction(obj["delta_irr"])}
    for j, c in obj["psi"].items():
        out[("psi", int(j))] = Fraction(c)
    for entry in obj["delta"]:
        out[("delta", entry["i"], oracles.mask_of(entry["S"]))] = Fraction(entry["c"])
    return oracles.clean(out)


class Call:
    """One main(argv) call, its expected exit code and the check of its --json output."""

    def __init__(self, rung: str, argv: list[str], expected: int = 0, check=None, pair_steps: int = 0):
        self.rung = rung
        self.argv = argv
        self.expected = expected
        self.check = check
        self.pair_steps = pair_steps


class Cli:
    largest_rung = LARGEST_RUNG

    def __init__(self, root: Path):
        (root / ".perfbench_work").mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=root / ".perfbench_work"))
        self.calls: list[Call] | None = None
        self.first_output: dict[int, str] = {}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.workdir.parent.rmdir()

    def _write(self, name: str, payload) -> str:
        path = self.workdir / name
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    # -- the calls ---------------------------------------------------------------------

    def plain_round(self, seed: int, r: int):
        """The calls of every round; the files are written on the first request."""
        if self.calls is None:
            self.calls = self._make_calls(random.Random(f"cli:{seed}"))
        return self.calls

    def _make_calls(self, rng) -> list[Call]:
        calls = []
        for g, n in GN_LADDER:
            rung = f"g{g}n{n}"
            gn = ["--g", str(g), "--n", str(n)]
            tag = f"{g}{n}"
            d_neg = oracles.random_degrees(rng, g, n, negative=True)
            d_any = oracles.random_degrees(rng, g, n)
            coords_a = oracles.random_coords(rng, g, n)
            coords_b = oracles.random_coords(rng, g, n)
            label = {pair: rng.randint(-2, 3) for pair in oracles.admissible_pairs(g, n)}
            phi_a = self._write(f"phi_a{tag}.json", parameter_json(g, n, coords_a))
            phi_b = self._write(f"phi_b{tag}.json", parameter_json(g, n, coords_b))
            label_file = self._write(
                f"label{tag}.json",
                {"g": g, "n": n, "label": [
                    {"i": i, "S": oracles.marks(mask), "d": d} for (i, mask), d in label.items()
                ]},
            )
            dtext = ",".join(map(str, d_any))
            dneg = ",".join(map(str, d_neg))
            own_d = oracles.degree_label(g, n, d_any)
            calls += [
                Call(rung, ["polytope", *gn, f"--from-degrees={dtext}", "--json"],
                     check=lambda o, own=own_d: self._check_polytope(o, own)),
                Call(rung, ["polytope", *gn, "--phi", phi_a, "--json"],
                     check=lambda o, c=coords_a: self._check_polytope(o, oracles.label_of(c))),
                Call(rung, ["polytope", *gn, "--from-label", label_file, "--json"],
                     check=lambda o, own=label: self._check_polytope(o, own)),
                Call(rung, ["polytope", *gn, "--phi", phi_b]),
                Call(rung, ["pullback", *gn, f"--degrees={dtext}", "--json"],
                     check=lambda o, n=n, d=d_any: read_class(o) == oracles.pullback_at_degrees(n, d)),
                Call(rung, ["pullback", *gn, f"--degrees={dneg}", "--phi", phi_a, "--json"],
                     check=lambda o, g=g, n=n, c=coords_a, d=d_neg: read_class(o) == oracles.pullback(g, n, c, d)),
                Call(rung, ["wall-cross", *gn, "--phi1", f"fromdeg:{dtext}", "--phi2", phi_b, "--json"],
                     check=lambda o, g=g, n=n, l1=own_d, c=coords_b:
                     read_class(o) == oracles.wall_crossing(g, n, l1, oracles.label_of(c)),
                     pair_steps=oracles.pair_steps(own_d, oracles.label_of(coords_b))),
                Call(rung, ["wall-cross", *gn, "--phi1", phi_a, "--phi2",
                            "label:" + ",".join(str(d) for d in label.values()), "--json"],
                     check=lambda o, g=g, n=n, c=coords_a, l2=label:
                     read_class(o) == oracles.wall_crossing(g, n, oracles.label_of(c), l2),
                     pair_steps=oracles.pair_steps(oracles.label_of(coords_a), label)),
                Call(rung, ["compare", *gn, f"--degrees={dneg}", "--json"],
                     check=lambda o, g=g, n=n, d=d_neg: self._check_compare(o, g, n, d)),
                Call(rung, ["compare", *gn, f"--degrees={dtext}"]),
            ]
            # The largest stable trees of type (2,2) have 4 vertices, of type (3,3) 5.
            for k in {(2, 2): (3, 4), (3, 3): (4, 5)}.get((g, n), ()):
                graph = random_graph(rng, g, n, k)
                gfile = self._write(f"graph{tag}_{k}.json", graph_json(*graph))
                coords = oracles.random_coords(rng, g, n)
                pfile = self._write(f"phi_graph{tag}_{k}.json", parameter_json(g, n, coords))
                calls.append(
                    Call(rung, ["stable-degree", "--graph", gfile, "--phi", pfile, "--verify", "--json"],
                         check=lambda o, graph=graph, c=coords: self._check_stable_degree(o, graph, c))
                )
        return calls + self._error_calls()

    def _error_calls(self) -> list[Call]:
        valid_22 = parameter_json(2, 2, {(i, m): Fraction(i) + Fraction(1, 10) for i, m in oracles.admissible_pairs(2, 2)})
        on_wall = parameter_json(3, 3, {(i, m): Fraction(i) for i, m in oracles.admissible_pairs(3, 3)})
        on_wall["coords"][0]["phi_plus"] = "5/2"
        duplicate = dict(valid_22)
        duplicate["coords"] = valid_22["coords"] + [{"i": 1, "S": [2], "phi_plus": "7/3"}]
        path_graph = {"vertices": [{"id": "v1", "genus": 1}, {"id": "v2", "genus": 1}],
                      "edges": [["v1", "v2"]], "markings": {"1": "v1", "2": "v2"}}
        lax_marking = dict(path_graph, markings={"0_1": "v1", "2": "v2"})
        triangle = {"vertices": [{"id": f"v{i}", "genus": 1} for i in (1, 2, 3)],
                    "edges": [["v1", "v2"], ["v2", "v3"], ["v1", "v3"]], "markings": {"1": "v1"}}
        malformed = self._write("malformed.json", '{"g": 2, "n": 2, "coords": [')
        wall_file = self._write("on_wall33.json", on_wall)
        dup_file = self._write("duplicate22.json", duplicate)
        lax_file = self._write("lax_marking.json", lax_marking)
        triangle_file = self._write("triangle.json", triangle)
        return [
            Call("error", ["polytope", "--g", "2", "--n", "2", "--phi", malformed, "--json"], EXIT_MALFORMED),
            Call("error", ["polytope", "--g", "2"], EXIT_MALFORMED),
            Call("error", ["polytope", "--g", "3", "--n", "3", "--phi", wall_file, "--json"], EXIT_DEGENERATE),
            Call("error", ["wall-cross", "--g", "2", "--n", "2", "--phi1", "canonical", "--phi2", "fromdeg:1,0"],
                 EXIT_DEGENERATE),
            Call("error", ["stable-degree", "--graph", triangle_file, "--from-degrees", "3", "--json"],
                 EXIT_GRAPH_SHAPE),
            Call("error", ["compare", "--g", "3", "--n", "3", "--degrees", "1,1,0", "--mueller"], EXIT_PRECONDITION),
            Call("error", ["pullback", "--g", "2", "--n", "2", "--degrees", "1,1", "--json"], EXIT_PRECONDITION),
            Call("error", ["polytope", "--g", "2", "--n", "2", "--from-degrees=1_0,-9", "--json"],
                 EXIT_MALFORMED),
            Call("error", ["polytope", "--g", "2", "--n", "2", "--phi", dup_file, "--json"], EXIT_MALFORMED),
            Call("error", ["stable-degree", "--graph", lax_file, "--from-degrees", "1,0", "--json"],
                 EXIT_MALFORMED),
        ]

    # -- checks of decoded output -----------------------------------------------------------

    @staticmethod
    def _check_polytope(obj, own_label) -> bool:
        label = {(e["i"], oracles.mask_of(e["S"])): e["d"] for e in obj["label"]}
        flat = all(d in (i - 1, i) for (i, _), d in own_label.items())
        reduced = all(i - 2 <= d <= i + 1 for (i, _), d in own_label.items())
        return (
            label == own_label
            and obj["nondegenerate"] is True
            and obj["theta_flat"] is flat
            and obj["theta_reduced"] is reduced
        )

    @staticmethod
    def _check_compare(obj, g, n, degrees) -> bool:
        classes = {name: read_class(c) for name, c in obj["classes"].items()}
        sp = oracles.stable_pairs(g, n, degrees)
        t_set = oracles.mueller_t(g, n, degrees)
        diff = {("delta", i, m): Fraction(i - oracles.degree_sum(degrees, m)) for i, m in t_set}
        return (
            classes["pullback(phi_d)"] == oracles.pullback_at_degrees(n, degrees)
            and classes["stable-pairs"] == sp
            and oracles.add(classes["hain"], sp, Fraction(-1)) == {("irr",): Fraction(1, 8)}
            and read_class(obj["mueller_diff"]) == oracles.clean(diff)
            and oracles.add(classes["mueller"], diff) == sp
            and [(e["i"], oracles.mask_of(e["S"])) for e in obj["T"]] == t_set
            and all(obj["identities"].values())
        )

    @staticmethod
    def _check_stable_degree(obj, graph, coords) -> bool:
        ids, genera, loops, tree, markings = graph
        g = sum(genera.values()) + sum(loops.values())
        values = {v: Fraction(x) for v, x in obj["phi"].items()}
        degs = obj["degree"]
        parent, order, sides = oracles.edge_sides(genera, loops, markings, tree)
        sub_value = oracles.subtree_sums(parent, order, values.__getitem__)
        sub_degree = oracles.subtree_sums(parent, order, degs.__getitem__)
        return (
            obj["verified"] is True
            and sum(values.values()) == g - 1
            and sum(degs.values()) == g - 1
            and all(
                (g - 1) - sub_value[v] == coords[pair]
                and abs(sub_degree[v] - sub_value[v]) < Fraction(1, 2)
                for _, v, pair in sides
            )
        )

    # -- the workload interface -------------------------------------------------------------

    def build_round(self, lib, plain):
        return plain

    def warmup(self, lib, inputs):
        for call in inputs:
            self._run(lib, call.argv)

    @staticmethod
    def _run(lib, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = lib.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def round_ops(self, lib, inputs):
        for call in inputs:
            yield Op(call.rung, lambda argv=call.argv: self._run(lib, argv),
                     span=f"cli.main.{call.argv[0]}", pair_steps=call.pair_steps)

    def check_round(self, lib, inputs, segments):
        failed = 0
        problems = []
        for index, (seg, call) in enumerate(zip(segments, inputs)):
            if seg.error is not None:
                failed += 1
                continue
            code, out, err = seg.output
            if code != call.expected:
                failed += 1
                continue
            first = self.first_output.get(index)
            if first is None:
                self.first_output[index] = out
                if code == 0 and not self._check_output(call, out):
                    problems.append(f"{' '.join(call.argv)}: output disagrees with the recomputation")
            elif out != first:
                problems.append(f"{' '.join(call.argv)}: output differs from the first round's on identical input")
        return failed, problems

    @staticmethod
    def _check_output(call, out) -> bool:
        if call.check is None:
            return bool(out.strip())
        try:
            return bool(call.check(json.loads(out)))
        except (ValueError, KeyError, TypeError):
            return False

    def counts(self, plain) -> dict:
        pairs = sum(
            len(oracles.admissible_pairs(int(c.argv[c.argv.index("--g") + 1]), int(c.argv[c.argv.index("--n") + 1])))
            for c in plain
            if "--g" in c.argv and "--n" in c.argv
        )
        return {"stability.pairs": pairs}
