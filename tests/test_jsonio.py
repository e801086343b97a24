import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacwall import (
    BoundaryPair,
    DivisorClass,
    JacwallError,
    MalformedInput,
    PolytopeLabel,
    StabilityParameter,
    admissible_pairs,
)
from jacwall.jsonio import (
    class_to_json,
    format_rational,
    graph_from_json,
    graph_to_json,
    label_from_json,
    label_to_json,
    pair_from_json,
    parameter_from_json,
    parameter_to_json,
    parse_int,
    parse_int_text,
    parse_rational,
)

F = Fraction


def pair(i, *marks):
    return BoundaryPair(i, frozenset(marks))


# -- rationals ---------------------------------------------------------------


def test_parse_rational_forms():
    assert parse_rational("7/10") == F(7, 10)
    assert parse_rational("-3") == F(-3)
    assert parse_rational(4) == F(4)
    assert parse_rational("  2/4 ") == F(1, 2)


@pytest.mark.parametrize("bad", ["7/0", "1/-2", "a", "1.5", 1.5, None, True, [1], "\u0663"])
def test_parse_rational_rejects(bad):
    with pytest.raises(MalformedInput):
        parse_rational(bad)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_rational_round_trip(p, q):
    value = F(p, q)
    assert parse_rational(format_rational(value)) == value
    if value.denominator == 1:
        assert "/" not in format_rational(value)


@pytest.mark.parametrize("text, value", [("7", 7), ("-12", -12), (" 3 ", 3), ("007", 7)])
def test_parse_int_text_accepts(text, value):
    assert parse_int_text(text, "bad") == value


@pytest.mark.parametrize("bad", ["1_0", "+1", "", "-", "1.0", "0x1", "\u0663", "1 2", 1, None])
def test_parse_int_text_rejects_lax_spellings(bad):
    with pytest.raises(MalformedInput, match="^bad$"):
        parse_int_text(bad, "bad")


# -- graphs ---------------------------------------------------------------------


LOOPED_GRAPH = {
    "vertices": [{"id": "v1", "genus": 1}, {"id": "v2", "genus": 1}, {"id": "v3", "genus": 1}],
    "edges": [["v1", "v2"], ["v2", "v3"], ["v1", "v1"]],
    "markings": {"1": "v1", "2": "v3"},
}


def test_graph_round_trip():
    G = graph_from_json(LOOPED_GRAPH)
    assert G.loops_at["v1"] == 1 and G.n == 2
    assert graph_from_json(graph_to_json(G)) == G


def test_graph_malformed():
    with pytest.raises(MalformedInput):
        graph_from_json({"vertices": [], "markings": {}})
    with pytest.raises(MalformedInput):
        graph_from_json({"vertices": [{"id": "a", "genus": 0}], "markings": {"x": "a"}})
    bad = dict(LOOPED_GRAPH, edges=[["v1", "zz"]])
    with pytest.raises(MalformedInput):
        graph_from_json(bad)


def test_graph_rejects_lax_marking_key():
    lax = dict(LOOPED_GRAPH, markings={"0_1": "v1", "2": "v3"})
    with pytest.raises(MalformedInput, match="marking keys must be integers"):
        graph_from_json(lax)
    twice = dict(LOOPED_GRAPH, markings={"1": "v1", "01": "v2", "2": "v3"})
    with pytest.raises(MalformedInput, match="marking 1 is given twice"):
        graph_from_json(twice)


def test_graph_rejects_repeated_vertex_id():
    dup = dict(LOOPED_GRAPH, vertices=LOOPED_GRAPH["vertices"] + [{"id": "v1", "genus": 0}])
    with pytest.raises(MalformedInput, match="vertex id 'v1' is given twice"):
        graph_from_json(dup)


# -- pairs, parameters, labels ------------------------------------------------------


def test_pair_normalization_on_input():
    assert pair_from_json({"i": 1, "S": [2]}, 2, 2) == pair(1, 1)
    with pytest.raises(MalformedInput):
        pair_from_json({"i": 5, "S": [1]}, 2, 2)


def test_parameter_round_trip():
    phi = StabilityParameter(
        2,
        2,
        {
            pair(0, 1, 2): F(-1, 2),
            pair(1, 1): F(7, 10),
            pair(1, 1, 2): F(3),
        },
    )
    encoded = parameter_to_json(phi)
    assert encoded["coords"][0]["phi_plus"] == "-1/2"
    assert parameter_from_json(encoded) == phi
    assert parameter_from_json(json.loads(json.dumps(encoded))) == phi


def test_parameter_malformed():
    with pytest.raises(MalformedInput):
        parameter_from_json({"g": 2, "n": 2, "coords": []})
    with pytest.raises(MalformedInput):
        parameter_from_json({"g": 2, "n": 2, "coords": [{"i": 1, "S": [1], "phi_plus": 1.5}]})


def test_parameter_rejects_repeated_pair():
    # (1,{2}) is the complement spelling of (1,{1}) at (g,n) = (2,2)
    coords = [
        {"i": 0, "S": [1, 2], "phi_plus": "1/10"},
        {"i": 1, "S": [1], "phi_plus": "1/3"},
        {"i": 1, "S": [1, 2], "phi_plus": "11/10"},
    ]
    for repeat in ({"i": 1, "S": [1], "phi_plus": "1/3"}, {"i": 1, "S": [2], "phi_plus": "7/3"}):
        with pytest.raises(MalformedInput, match=r"pair \(1,\{1\}\) is given twice"):
            parameter_from_json({"g": 2, "n": 2, "coords": coords + [repeat]})


def test_label_rejects_repeated_pair():
    entries = [{"i": 0, "S": [1, 2], "d": 0}, {"i": 1, "S": [1], "d": 1}, {"i": 1, "S": [1, 2], "d": 1}]
    with pytest.raises(MalformedInput, match=r"pair \(1,\{1\}\) is given twice"):
        label_from_json({"g": 2, "n": 2, "label": entries + [{"i": 1, "S": [2], "d": 2}]})


@pytest.mark.parametrize(
    "decode, obj, message",
    [
        (parameter_from_json, {"coords": {}}, "parameter.coords must be a JSON array, got dict"),
        (label_from_json, {"label": "x"}, "label.label must be a JSON array, got str"),
        (parameter_from_json, {"coords": 3}, "parameter.coords must be a JSON array, got int"),
        (parameter_from_json, {"coords": [None]}, "coordinate must be a JSON object, got NoneType"),
        (label_from_json, {"label": [[1]]}, "label entry must be a JSON object, got list"),
        (label_from_json, {"label": ["x"]}, "label entry must be a JSON object, got str"),
        (label_from_json, {"label": [{"i": 1, "S": [1], "d": 1}]}, "invalid label: label must cover exactly"),
    ],
)
def test_pair_entry_lists_name_the_bad_part(decode, obj, message):
    with pytest.raises(MalformedInput) as info:
        decode({"g": 2, "n": 2, **obj})
    assert str(info.value).startswith(message)


def test_label_round_trip():
    lab = PolytopeLabel(2, 2, dict(zip(admissible_pairs(2, 2), [0, 1, 1])))
    assert label_from_json(label_to_json(lab)) == lab
    with pytest.raises(MalformedInput):
        label_from_json({"g": 2, "n": 2, "label": [{"i": 1, "S": [1], "d": "x"}]})


# -- classes ------------------------------------------------------------------------------


def test_class_round_trip():
    cls = DivisorClass(
        2,
        2,
        lam=F(-1),
        psi={1: F(6), 2: F(1)},
        delta_irr=F(1, 8),
        delta={pair(1, 1): F(-3)},
    )
    encoded = class_to_json(cls)
    assert encoded["lambda"] == "-1"
    assert encoded["delta_irr"] == "1/8"
    assert encoded["psi"] == {"1": "6", "2": "1"}
    assert encoded["delta"] == [{"i": 1, "S": [1], "c": "-3"}]


def test_class_json_is_deterministic():
    cls = DivisorClass(3, 2, psi={2: F(5)}, delta={pair(2, 1): F(7, 3)})
    first = json.dumps(class_to_json(cls), sort_keys=True)
    second = json.dumps(class_to_json(cls), sort_keys=True)
    assert first == second


# -- the input boundary ---------------------------------------------------------------------

BIG = "1" + "0" * 5000  # more digits than int() reads from text by default


@pytest.mark.parametrize(
    "decode, message",
    [
        (lambda: parse_rational(BIG + "/3"), "expected an integer or 'p/q' string"),
        (lambda: graph_from_json(dict(LOOPED_GRAPH, markings={"1": "v1", BIG: "v3"})), "marking keys must be integers"),
    ],
    ids=["rational", "marking-key"],
)
def test_integers_over_the_digit_limit_are_malformed(decode, message):
    # int() raises a bare ValueError past sys.get_int_max_str_digits() digits
    with pytest.raises(MalformedInput) as info:
        decode()
    assert str(info.value).startswith(message)


HUGE = 10**5000  # an int that repr() refuses to write, past Python's digit limit


@pytest.mark.parametrize(
    "decode, message",
    [
        (lambda: parse_rational((HUGE,)), "expected an integer or 'p/q' string, got a value over"),
        (lambda: parse_int(Fraction(HUGE, 3)), "expected an integer, got a value over"),
        (
            lambda: graph_from_json({"vertices": [{"id": HUGE, "genus": 1}], "markings": {"1": "v1"}}),
            "vertex id must be a string, got a value over",
        ),
        (
            lambda: graph_from_json(dict(LOOPED_GRAPH, edges=[["v1", HUGE]])),
            "edges must be pairs of vertex ids, got a value over",
        ),
    ],
    ids=["rational", "int", "vertex-id", "edge"],
)
def test_rejected_values_past_the_digit_limit_are_malformed(decode, message):
    # a library caller's Python value holding such an int made the message itself raise ValueError
    with pytest.raises(MalformedInput) as info:
        decode()
    assert str(info.value).startswith(message)


_STRAY = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.floats(),
    st.none(),
    st.sampled_from(["1_0", "+1", " 3 ", "1/0", "1/2", "-1", "v1"]),
    st.just(BIG),
)
_PARAMETER_22 = {
    "g": 2,
    "n": 2,
    "coords": [
        {"i": 0, "S": [1, 2], "phi_plus": "1/10"},
        {"i": 1, "S": [1], "phi_plus": 0},
        {"i": 1, "S": [1, 2], "phi_plus": 1},
    ],
}
_LABEL_22 = {
    "g": 2,
    "n": 2,
    "label": [{"i": 0, "S": [1, 2], "d": 0}, {"i": 1, "S": [1], "d": 1}, {"i": 1, "S": [1, 2], "d": 1}],
}
_SKELETONS = [
    (graph_from_json, LOOPED_GRAPH),
    (lambda obj: pair_from_json(obj, 2, 2), {"i": 1, "S": [1]}),
    (parameter_from_json, _PARAMETER_22),
    (label_from_json, _LABEL_22),
]


def _fill(skeleton, data):
    """A copy of skeleton whose every leaf and object key is kept or, one time in four, a stray value."""
    if isinstance(skeleton, list):
        return [_fill(item, data) for item in skeleton]
    if isinstance(skeleton, dict):
        return {_stray(key, data, str): _fill(value, data) for key, value in skeleton.items()}
    return _stray(skeleton, data)


def _stray(value, data, spell=lambda stray: stray):
    return spell(data.draw(_STRAY)) if data.draw(st.integers(0, 3)) == 0 else value


@given(st.sampled_from(_SKELETONS), st.data())
@settings(max_examples=200, deadline=None)
def test_decoders_let_only_jacwall_errors_escape(case, data):
    decode, skeleton = case
    try:
        decode(_fill(skeleton, data))
    except JacwallError:
        pass
