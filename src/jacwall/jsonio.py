"""The one place where external text becomes values, and values become JSON and rationals as text.

Every refusal is a MalformedInput (exit code 2), never a bare Python error.
Rationals travel as exact strings "p/q" (q > 0, reduced) or plain integers;
floats are rejected everywhere.  A JSON object key, pair, vertex id or marking
given twice is refused, never resolved by keeping the last value.
Pair keys are normalized so the encoded side always contains marking 1.
Encoders emit canonically ordered structures so serialization is byte-for-byte
deterministic.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
from fractions import Fraction

from .errors import JacwallError, MalformedInput, repr_text
from .graphs import BoundaryPair, MarkedGraph, normalize_pair
from .stability import PolytopeLabel, StabilityParameter

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$", re.ASCII)
_INT_TEXT_RE = re.compile(r"\s*-?[0-9]+\s*")


def _reject_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedInput(f"JSON object key {repr_text(key)} is given twice")
        obj[key] = value
    return obj


def load_json(path: str):
    """The decoded JSON file at path; a repeated object key is refused."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_reject_repeated_keys)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, or past int()'s digits
        raise MalformedInput(f"{path} is not valid JSON: {exc}")


def parse_rational(value) -> Fraction:
    """Read an exact rational from an int or a 'p/q' (or integer) string."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str) and (match := _RATIONAL_RE.match(value.strip())):
        with contextlib.suppress(ValueError):  # int() refuses numbers over its digit limit
            return Fraction(int(match[1]), int(match[2] or 1))
    raise MalformedInput(f"expected an integer or 'p/q' string, got {repr_text(value)}")


def _too_long() -> MalformedInput:
    """The refusal of a result with an integer that str() will not write, over Python's digit limit."""
    limit = sys.get_int_max_str_digits()
    return MalformedInput(f"a result has over {limit} digits, Python's limit for writing an integer")


def format_rational(value: Fraction) -> str:
    """Canonical string form: plain integer when q = 1, else 'p/q' reduced with q > 0."""
    try:
        return str(Fraction(value))
    except ValueError:
        raise _too_long() from None


def dump_json(payload: dict) -> str:
    """Canonical JSON text of an output payload: sorted keys, two-space indent."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True)
    except ValueError:
        raise _too_long() from None


def parse_int_text(text, message: str) -> int:
    """Read an integer written as ASCII digits with an optional '-' and surrounding whitespace.

    Raises MalformedInput(message) on anything else, including the spellings
    that int() also takes: '1_0', '+1' and non-ASCII digits.
    """
    if isinstance(text, str) and _INT_TEXT_RE.fullmatch(text):
        with contextlib.suppress(ValueError):  # int() refuses numbers over its digit limit
            return int(text)
    raise MalformedInput(message)


def parse_int_list(text: str) -> list[int]:
    """Read a comma-separated integer list such as '3,-2'."""
    message = f"expected a comma-separated integer list, got {repr_text(text)}"
    return [parse_int_text(part, message) for part in text.split(",")]


def parse_int(value) -> int:
    if type(value) is not int:
        raise MalformedInput(f"expected an integer, got {repr_text(value)}")
    return value


def _expect_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise MalformedInput(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _expect_list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise MalformedInput(f"{what} must be a JSON array, got {type(obj).__name__}")
    return obj


@contextlib.contextmanager
def _invalid(what: str):
    """Report a library error raised while building a decoded value as MalformedInput."""
    try:
        yield
    except JacwallError as exc:
        raise MalformedInput(f"invalid {what}: {exc}") from exc


# -- graphs ---------------------------------------------------------------------


def graph_from_json(obj) -> MarkedGraph:
    """Decode {"vertices": [{"id","genus"}], "edges": [[a,b]], "markings": {"1": id}}."""
    obj = _expect_object(obj, "graph")
    genera = {}
    for entry in _expect_list(obj.get("vertices"), "graph.vertices"):
        entry = _expect_object(entry, "vertex")
        vid = entry.get("id")
        if not isinstance(vid, str):
            raise MalformedInput(f"vertex id must be a string, got {repr_text(vid)}")
        if vid in genera:
            raise MalformedInput(f"vertex id {repr_text(vid)} is given twice")
        genera[vid] = parse_int(entry.get("genus"))
    edges = []
    for entry in _expect_list(obj.get("edges", []), "graph.edges"):
        entry = _expect_list(entry, "edge")
        if len(entry) != 2 or not all(isinstance(v, str) for v in entry):
            raise MalformedInput(f"edges must be pairs of vertex ids, got {repr_text(entry)}")
        edges.append((entry[0], entry[1]))
    markings = {}
    for key, vid in _expect_object(obj.get("markings"), "graph.markings").items():
        j = parse_int_text(key, f"marking keys must be integers, got {repr_text(key)}")
        if j in markings:
            raise MalformedInput(f"marking {j} is given twice")
        markings[j] = vid
    with _invalid("graph"):
        return MarkedGraph(genera, edges, markings)


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
    with _invalid("pair"):
        return normalize_pair(g, n, i, markings)


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
    with _invalid("parameter"):
        return StabilityParameter(g, n, coords)


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
    with _invalid("label"):
        return PolytopeLabel(g, n, label)


def label_to_json(label: PolytopeLabel) -> dict:
    return {
        "g": label.g,
        "n": label.n,
        "label": [{**pair_to_json(pair), "d": d} for pair, d in zip(label.pairs, label.values)],
    }


# -- divisor classes ---------------------------------------------------------------------


def class_to_json(cls) -> dict:
    """Encode a DivisorClass by its attributes alone, so the input boundary needs no class import."""
    return {
        "g": cls.g,
        "n": cls.n,
        "lambda": format_rational(cls.lam),
        "psi": {str(j): format_rational(c) for j, c in cls.psi.items()},
        "delta_irr": format_rational(cls.delta_irr),
        "delta": [{**pair_to_json(pair), "c": format_rational(c)} for pair, c in cls.delta.items()],
    }
