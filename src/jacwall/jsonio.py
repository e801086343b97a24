"""JSON encoding and decoding for graphs, parameters, labels, multidegrees, and classes.

Rationals travel as exact strings "p/q" (q > 0, reduced) or plain integers;
floats are rejected everywhere.  Pair keys are normalized so the encoded side
always contains marking 1.  Encoders emit canonically ordered structures so
serialization is byte-for-byte deterministic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .divisor_classes import DivisorClass
from .errors import JacwallError, MalformedInput
from .graphs import BoundaryPair, MarkedGraph, normalize_pair
from .multidegrees import TorsionFreeDegree
from .stability import PolytopeLabel, StabilityParameter

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$", re.ASCII)
_INT_TEXT_RE = re.compile(r"\s*-?[0-9]+\s*")


def parse_rational(value) -> Fraction:
    """Read an exact rational from an int or a 'p/q' (or integer) string."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_RE.match(value.strip())
        if match:
            p, q = match.group(1), match.group(2)
            return Fraction(int(p), int(q) if q else 1)
    raise MalformedInput(f"expected an integer or 'p/q' string, got {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical string form: plain integer when q = 1, else 'p/q' reduced with q > 0."""
    return str(Fraction(value))


def parse_int_text(text, message: str) -> int:
    """Read an integer written as ASCII digits with an optional '-' and surrounding whitespace.

    Raises MalformedInput(message) on anything else, including the spellings
    that int() also takes: '1_0', '+1' and non-ASCII digits.
    """
    if not isinstance(text, str) or not _INT_TEXT_RE.fullmatch(text):
        raise MalformedInput(message)
    return int(text)


def parse_int(value) -> int:
    if type(value) is not int:
        raise MalformedInput(f"expected an integer, got {value!r}")
    return value


def _expect_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise MalformedInput(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _expect_list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise MalformedInput(f"{what} must be a JSON array, got {type(obj).__name__}")
    return obj


# -- graphs ---------------------------------------------------------------------


def graph_from_json(obj) -> MarkedGraph:
    """Decode {"vertices": [{"id","genus"}], "edges": [[a,b]], "markings": {"1": id}}."""
    obj = _expect_object(obj, "graph")
    genera = {}
    for entry in _expect_list(obj.get("vertices"), "graph.vertices"):
        entry = _expect_object(entry, "vertex")
        vid = entry.get("id")
        if not isinstance(vid, str):
            raise MalformedInput(f"vertex id must be a string, got {vid!r}")
        if vid in genera:
            raise MalformedInput(f"vertex id {vid!r} is given twice")
        genera[vid] = parse_int(entry.get("genus"))
    edges = []
    for entry in _expect_list(obj.get("edges", []), "graph.edges"):
        entry = _expect_list(entry, "edge")
        if len(entry) != 2 or not all(isinstance(v, str) for v in entry):
            raise MalformedInput(f"edges must be pairs of vertex ids, got {entry!r}")
        edges.append((entry[0], entry[1]))
    markings = {}
    for key, vid in _expect_object(obj.get("markings"), "graph.markings").items():
        j = parse_int_text(key, f"marking keys must be integers, got {key!r}")
        if j in markings:
            raise MalformedInput(f"marking {j} is given twice")
        markings[j] = vid
    try:
        return MarkedGraph(genera, edges, markings)
    except JacwallError as exc:
        raise MalformedInput(f"invalid graph: {exc}") from exc


def graph_to_json(G: MarkedGraph) -> dict:
    return {
        "vertices": [{"id": v, "genus": G.genus_of[v]} for v in G.vertices],
        "edges": [[a, b] for a, b in G.edges],
        "markings": {str(j): G.marking_of[j] for j in sorted(G.marking_of)},
    }


# -- boundary pairs ----------------------------------------------------------------


def pair_from_json(obj, g: int, n: int) -> BoundaryPair:
    obj = _expect_object(obj, "pair")
    i = parse_int(obj.get("i"))
    markings = [parse_int(j) for j in _expect_list(obj.get("S"), "pair.S")]
    try:
        return normalize_pair(g, n, i, markings)
    except JacwallError as exc:
        raise MalformedInput(f"invalid pair: {exc}") from exc


def pair_to_json(pair: BoundaryPair) -> dict:
    return {"i": pair.i, "S": sorted(pair.S)}


# -- stability parameters and labels -------------------------------------------------


def _gn_from_json(obj) -> tuple[int, int]:
    return parse_int(obj.get("g")), parse_int(obj.get("n"))


def _pair_entries(entries, what: str, entry_what: str, key: str, parse_value, g: int, n: int) -> dict:
    """Read a list of {"i", "S", key} objects into {pair: value}, rejecting a pair in either spelling twice."""
    by_pair = {}
    for entry in _expect_list(entries, what):
        entry = _expect_object(entry, entry_what)
        pair = pair_from_json(entry, g, n)
        if pair in by_pair:
            raise MalformedInput(f"pair {pair} is given twice")
        by_pair[pair] = parse_value(entry.get(key))
    return by_pair


def parameter_from_json(obj) -> StabilityParameter:
    """Decode {"g", "n", "coords": [{"i", "S", "phi_plus"}]}."""
    obj = _expect_object(obj, "parameter")
    g, n = _gn_from_json(obj)
    coords = _pair_entries(obj.get("coords"), "parameter.coords", "coordinate", "phi_plus", parse_rational, g, n)
    try:
        return StabilityParameter(g, n, coords)
    except JacwallError as exc:
        raise MalformedInput(f"invalid parameter: {exc}") from exc


def parameter_to_json(phi: StabilityParameter) -> dict:
    return {
        "g": phi.g,
        "n": phi.n,
        "coords": [
            {**pair_to_json(pair), "phi_plus": format_rational(value)}
            for pair, value in zip(phi.pairs, phi.values)
        ],
    }


def label_from_json(obj) -> PolytopeLabel:
    """Decode {"g", "n", "label": [{"i", "S", "d"}]}."""
    obj = _expect_object(obj, "label")
    g, n = _gn_from_json(obj)
    label = _pair_entries(obj.get("label"), "label.label", "label entry", "d", parse_int, g, n)
    try:
        return PolytopeLabel(g, n, label)
    except JacwallError as exc:
        raise MalformedInput(f"invalid label: {exc}") from exc


def label_to_json(label: PolytopeLabel) -> dict:
    return {
        "g": label.g,
        "n": label.n,
        "label": [{**pair_to_json(pair), "d": d} for pair, d in zip(label.pairs, label.values)],
    }


# -- multidegrees ----------------------------------------------------------------------


def multidegree_from_json(G: MarkedGraph, obj) -> TorsionFreeDegree:
    """Decode {"deg": {vertex: int}, "failures": [[a, b], ...]} against a known graph.

    Failure entries name edges by their endpoints; repeated entries consume
    distinct parallel edges.
    """
    obj = _expect_object(obj, "multidegree")
    deg = {}
    for v, d in _expect_object(obj.get("deg"), "multidegree.deg").items():
        deg[v] = parse_int(d)
    used: set[int] = set()
    for entry in _expect_list(obj.get("failures", []), "multidegree.failures"):
        entry = _expect_list(entry, "failure")
        if len(entry) != 2 or not all(isinstance(v, str) for v in entry):
            raise MalformedInput(f"failures must be pairs of vertex ids, got {entry!r}")
        key = tuple(sorted(entry))
        index = next(
            (i for i, e in enumerate(G.edges) if e == key and i not in used), None
        )
        if index is None:
            raise MalformedInput(f"no unused edge {key} for the failure entry")
        used.add(index)
    try:
        return TorsionFreeDegree(G, deg, used)
    except JacwallError as exc:
        raise MalformedInput(f"invalid multidegree: {exc}") from exc


def multidegree_to_json(F: TorsionFreeDegree) -> dict:
    out = {"deg": {v: F.norm_deg[v] for v in F.graph.vertices}}
    if F.failures:
        out["failures"] = [list(F.graph.edges[i]) for i in sorted(F.failures)]
    return out


# -- divisor classes ---------------------------------------------------------------------


def class_from_json(obj) -> DivisorClass:
    """Decode {"g", "n", "lambda", "psi": {j: c}, "delta_irr", "delta": [{"i","S","c"}]}."""
    obj = _expect_object(obj, "class")
    g, n = _gn_from_json(obj)
    psi = {}
    for key, c in _expect_object(obj.get("psi", {}), "class.psi").items():
        j = parse_int_text(key, f"psi keys must be integers, got {key!r}")
        if j in psi:
            raise MalformedInput(f"psi_{j} is given twice")
        psi[j] = parse_rational(c)
    delta = _pair_entries(obj.get("delta", []), "class.delta", "delta entry", "c", parse_rational, g, n)
    try:
        return DivisorClass(
            g,
            n,
            lam=parse_rational(obj.get("lambda", 0)),
            psi=psi,
            delta_irr=parse_rational(obj.get("delta_irr", 0)),
            delta=delta,
        )
    except JacwallError as exc:
        raise MalformedInput(f"invalid class: {exc}") from exc


def class_to_json(cls: DivisorClass) -> dict:
    return {
        "g": cls.g,
        "n": cls.n,
        "lambda": format_rational(cls.lam),
        "psi": {str(j): format_rational(c) for j, c in cls.psi.items()},
        "delta_irr": format_rational(cls.delta_irr),
        "delta": [{**pair_to_json(pair), "c": format_rational(c)} for pair, c in cls.delta.items()],
    }
