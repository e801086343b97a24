"""Command-line front end: wires flags to the library and renders its results.

Subcommands: polytope, stable-degree, wall-cross, pullback, compare, check.
Every file, flag value and environment variable is read through jsonio, the
one input boundary; output is a plain text table or, with --json, canonical
JSON that is byte-identical across runs on identical inputs.

Exit codes: 0 ok, 1 identity or verification failure, 2 malformed input,
3 degenerate parameter, 4 graph shape violation, 5 formula precondition
violation.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import jsonio
from .divisor_classes import (
    DivisorClass,
    basis_labels,
    compare_classes,
    theta_pullback,
    wall_crossing,
)
from .errors import JacwallError, MalformedInput, NoNegativeDegree, repr_text
from .graphs import admissible_pairs, enumerate_tree_type_graphs, genus
from .multidegrees import all_stable_multidegrees_bruteforce, is_semistable, stable_multidegree
from .stability import (
    PolytopeLabel,
    canonical_parameter,
    extend_to_graph,
    is_theta_flat,
    is_theta_reduced,
    phi_from_degrees,
    phi_from_label,
    polytope_label,
    random_degrees,
    random_parameter,
)

EXIT_OK = 0
EXIT_FAIL = 1


# -- small helpers ---------------------------------------------------------------


def _emit_json(payload: dict) -> None:
    sys.stdout.write(jsonio.dump_json(payload) + "\n")


def _table(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines)


def _add_phi_source(parser: argparse.ArgumentParser, required: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--phi", metavar="FILE", help="stability parameter JSON file")
    group.add_argument(
        "--from-degrees", metavar="D1,..,DN", help="use the integral parameter attached to this degree vector"
    )
    group.add_argument("--from-label", metavar="FILE", help="use an interior point of the polytope label in FILE")


def _gn_file(path: str, decode, noun: str, g: int, n: int):
    """Decode a JSON file holding a parameter or a label, which must live over (g, n)."""
    found = decode(jsonio.load_json(path))
    if (found.g, found.n) != (g, n):
        raise MalformedInput(f"{noun} file has (g,n)=({found.g},{found.n}), expected ({g},{n})")
    return found


def _resolve_phi(args, g: int, n: int):
    """The parameter of the --phi, --from-degrees or --from-label flag given, or None."""
    if args.phi is not None:
        return _gn_file(args.phi, jsonio.parameter_from_json, "parameter", g, n)
    if args.from_degrees is not None:
        return phi_from_degrees(g, n, jsonio.parse_int_list(args.from_degrees))
    if args.from_label is not None:
        return phi_from_label(_gn_file(args.from_label, jsonio.label_from_json, "label", g, n))
    return None


def _phi_from_spec(spec: str, g: int, n: int):
    """Inline parameter spec: 'fromdeg:D1,..', 'label:D1,..', 'canonical', or a JSON file path."""
    if spec.startswith("fromdeg:"):
        return phi_from_degrees(g, n, jsonio.parse_int_list(spec[len("fromdeg:") :]))
    if spec.startswith("label:"):
        values = jsonio.parse_int_list(spec[len("label:") :])
        pairs = admissible_pairs(g, n)
        if len(values) != len(pairs):
            raise MalformedInput(f"label spec needs {len(pairs)} entries for (g,n)=({g},{n}), got {len(values)}")
        return phi_from_label(PolytopeLabel(g, n, dict(zip(pairs, values))))
    if spec == "canonical":
        return canonical_parameter(g, n)
    return _gn_file(spec.removeprefix("file:"), jsonio.parameter_from_json, "parameter", g, n)


def _class_rows(g: int, n: int, columns: list[tuple[str, DivisorClass]]) -> list[tuple[str, ...]]:
    rows = [("term",) + tuple(name for name, _ in columns)]
    for term, *values in zip(basis_labels(g, n), *(cls.coeffs for _, cls in columns)):
        rows.append((term,) + tuple(jsonio.format_rational(v) for v in values))
    return rows


def _emit_class(args, title: str, cls: DivisorClass, **extra) -> None:
    """Print one class: its title and coefficient table, or with --json its JSON and extra keys."""
    if args.json:
        _emit_json({**jsonio.class_to_json(cls), **extra})
    else:
        print(title + "\n" + _table(_class_rows(args.g, args.n, [("coefficient", cls)])))


# -- polytope ---------------------------------------------------------------------


def _cmd_polytope(args) -> int:
    phi = _resolve_phi(args, args.g, args.n)
    label = polytope_label(phi)
    flat = is_theta_flat(phi)
    reduced = is_theta_reduced(phi)
    if args.json:
        verdicts = {"nondegenerate": True, "theta_flat": flat, "theta_reduced": reduced}
        _emit_json({**jsonio.label_to_json(label), **verdicts})
        return EXIT_OK
    rows = [("pair", "d")] + [(str(p), jsonio.format_rational(d)) for p, d in zip(label.pairs, label.values)]
    lines = [f"stability polytope (g={args.g}, n={args.n})", _table(rows), "nondegenerate: true"]
    lines += [f"theta-flat: {str(flat).lower()}", f"theta-reduced: {str(reduced).lower()}"]
    print("\n".join(lines))
    return EXIT_OK


# -- stable-degree -----------------------------------------------------------------


def _cmd_stable_degree(args) -> int:
    G = jsonio.graph_from_json(jsonio.load_json(args.graph))
    g, n = genus(G), G.n
    phi = _resolve_phi(args, g, n)
    pG = extend_to_graph(phi, G)
    md = stable_multidegree(pG)

    verified = None
    if args.verify:
        strict = all_stable_multidegrees_bruteforce(pG, strict=True)
        verified = strict == [md]
    if args.json:
        payload = {
            "g": g,
            "n": n,
            "phi": {v: jsonio.format_rational(pG.value(v)) for v in G.vertices},
            "degree": {v: md.deg[v] for v in G.vertices},
        }
        if verified is not None:
            payload["verified"] = verified
        _emit_json(payload)
    else:
        rows = [("vertex", "phi", "degree")]
        rows += [(v, jsonio.format_rational(pG.value(v)), jsonio.format_rational(md.deg[v])) for v in G.vertices]
        lines = [f"graph: {len(G.vertices)} vertices, {len(G.edges)} edges, genus {g}, n {n}", _table(rows)]
        if verified is not None:
            lines.append(f"verified: {str(verified).lower()}")
        print("\n".join(lines))
    if verified is False:
        print("error: brute force disagrees with the tree solver", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# -- classes: pullback / wall-cross / compare ------------------------------------------


def _cmd_pullback(args) -> int:
    degrees = jsonio.parse_int_list(args.degrees)
    phi = _resolve_phi(args, args.g, args.n)
    if phi is None:
        phi = phi_from_degrees(args.g, args.n, degrees)
    title = f"theta pullback (g={args.g}, n={args.n}, degrees={args.degrees})"
    _emit_class(args, title, theta_pullback(phi, degrees), degrees=degrees)
    return EXIT_OK


def _cmd_wall_cross(args) -> int:
    phi1 = _phi_from_spec(args.phi1, args.g, args.n)
    phi2 = _phi_from_spec(args.phi2, args.g, args.n)
    _emit_class(args, f"wall crossing (g={args.g}, n={args.n})", wall_crossing(phi1, phi2))
    return EXIT_OK


def _cmd_compare(args) -> int:
    g, n = args.g, args.n
    degrees = jsonio.parse_int_list(args.degrees)
    if args.mueller and not any(d < 0 for d in degrees):
        raise NoNegativeDegree(f"the Mueller class needs a negative degree, got {degrees}")
    found = compare_classes(g, n, degrees)
    if args.json:
        payload = {
            "g": g,
            "n": n,
            "degrees": degrees,
            "classes": {name: jsonio.class_to_json(cls) for name, cls in found.classes.items()},
            "T": [jsonio.pair_to_json(pair) for pair in (found.T or [])],
            "identities": dict(found.identities),
        }
        if found.diff is not None:
            payload["mueller_diff"] = jsonio.class_to_json(found.diff)
        _emit_json(payload)
    else:
        lines = [
            f"class comparison (g={g}, n={n}, degrees={args.degrees})",
            _table(_class_rows(g, n, list(found.classes.items()))),
        ]
        if found.T is None:
            lines.append("T: (mueller class undefined: no negative degree)")
        else:
            lines.append(f"T: {', '.join(str(pair) for pair in found.T) or '(empty)'}")
        lines += [f"identity {name}: {'PASS' if ok else 'FAIL'}" for name, ok in found.identities]
        print("\n".join(lines))
    return EXIT_OK if all(ok for _, ok in found.identities) else EXIT_FAIL


# -- check: randomized self-check sweep ---------------------------------------------------


def _cmd_check(args) -> int:
    if (args.g is None) != (args.n is None):
        raise MalformedInput("--g and --n must be given together")
    if args.trials < 0:
        raise MalformedInput(f"--trials must be a nonnegative integer, got {args.trials}")
    if args.max_vertices < 1:
        raise MalformedInput(f"--max-vertices must be a positive integer, got {args.max_vertices}")
    seed_text = os.environ.get("JACWALL_SEED", "0")
    seed = jsonio.parse_int_text(seed_text, f"JACWALL_SEED must be an integer, got {repr_text(seed_text)}")
    rng = random.Random(seed)
    gn_list = [(args.g, args.n)] if args.g is not None else [(1, 2), (2, 1), (2, 2)]

    def wall_crossing_cases(g: int, n: int):
        for _ in range(args.trials):
            phi1, phi2 = random_parameter(rng, g, n), random_parameter(rng, g, n)
            degrees = random_degrees(rng, g, n)
            yield theta_pullback(phi2, degrees) - theta_pullback(phi1, degrees) == wall_crossing(phi1, phi2)

    def identity_cases(g: int, n: int):
        for _ in range(args.trials):
            yield all(holds for _, holds in compare_classes(g, n, random_degrees(rng, g, n)).identities)

    def multidegree_cases(g: int, n: int):
        corpus = enumerate_tree_type_graphs(g, n, args.max_vertices)
        for G in corpus if len(corpus) <= 25 else rng.sample(corpus, 25):
            pG = extend_to_graph(random_parameter(rng, g, n), G)
            strict = all_stable_multidegrees_bruteforce(pG, strict=True)
            yield strict == [stable_multidegree(pG)] and all(
                is_semistable(pG, found, strict=True, mode="elementary") for found in strict
            )

    # The draws come sweep by sweep, then (g, n) by (g, n), so one JACWALL_SEED gives one run.
    verdicts = []
    for name, cases in (
        ("wall-crossing consistency", wall_crossing_cases),
        ("class identities", identity_cases),
        ("unique stable multidegree", multidegree_cases),
    ):
        results = [ok for g, n in gn_list for ok in cases(g, n)]
        verdicts.append(all(results))
        print(f"{'PASS' if verdicts[-1] else 'FAIL'} {name} ({len(results)} cases)")
    return EXIT_OK if all(verdicts) else EXIT_FAIL


# -- parser ------------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacwall",
        description=(
            "Stability polytopes, stable multidegrees, and theta-divisor classes "
            "over the moduli of stable marked curves, in exact arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polytope", help="label the stability polytope of a parameter")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_phi_source(p, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("stable-degree", help="the unique stable multidegree on a graph")
    p.add_argument("--graph", metavar="FILE", required=True, help="graph JSON file")
    _add_phi_source(p, required=True)
    p.add_argument("--verify", action="store_true", help="re-check via brute force")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stable_degree)

    p = sub.add_parser("pullback", help="pullback of the theta class to the moduli of curves")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", required=True, metavar="D1,..,DN")
    _add_phi_source(p, required=False)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pullback)

    p = sub.add_parser("wall-cross", help="difference of theta classes between two parameters")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--phi1", required=True, metavar="SPEC")
    p.add_argument("--phi2", required=True, metavar="SPEC")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_wall_cross)

    p = sub.add_parser("compare", help="compare the theta, stable-pairs, Hain, and Mueller classes")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", required=True, metavar="D1,..,DN")
    p.add_argument(
        "--mueller", action="store_true", help="require the Mueller comparison (error when no degree is negative)"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("check", help="randomized self-check sweep (seeded by JACWALL_SEED)")
    p.add_argument("--g", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--max-vertices", type=int, default=3)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except JacwallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
