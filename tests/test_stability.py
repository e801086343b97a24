import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacwall import (
    BasisMismatch,
    BoundaryPair,
    DegenerateParameter,
    DegreeSumMismatch,
    DivisorClass,
    EmptyOrFullSubset,
    GraphMismatch,
    GraphParameter,
    InadmissiblePair,
    InvalidGN,
    InvalidGraph,
    InvalidParameter,
    MalformedInput,
    MarkedGraph,
    Multidegree,
    NonAmple,
    NotTreeLike,
    PolytopeLabel,
    StabilityParameter,
    TorsionFreeDegree,
    admissible_pairs,
    boundary_pair_of_edge,
    canonical_parameter,
    check_compatibility,
    connecting_twist,
    contract,
    crossing_edge_indices,
    dualizing_degree,
    ell,
    elementary_subgraphs,
    enumerate_tree_type_graphs,
    extend_to_graph,
    first_wall,
    genus,
    is_semistable,
    is_theta_flat,
    is_theta_reduced,
    normalize_pair,
    partial_degree,
    phi_from_degrees,
    phi_from_label,
    phi_from_slope,
    polytope_label,
    stability_inequality,
    stable_multidegree,
    theta_pullback,
    twist_label,
    twist_parameter,
    two_vertex_graph,
)
from testutil import GN_SET, random_degrees, random_parameter, random_tree_graph, reference_pair, reference_side

F = Fraction


def pair(i, *marks):
    return BoundaryPair(i, frozenset(marks))


def param22(c012, c11, c112):
    p012, p11, p112 = admissible_pairs(2, 2)
    return StabilityParameter(2, 2, {p012: F(c012), p11: F(c11), p112: F(c112)})


@pytest.fixture
def path111():
    return MarkedGraph(
        {"v1": 1, "v2": 1, "v3": 1},
        [("v1", "v2"), ("v2", "v3")],
        {1: "v1", 2: "v3"},
    )


@pytest.fixture
def phi32_path():
    coords = {p: F(0) for p in admissible_pairs(3, 2)}
    coords[pair(1, 1)] = F(3, 10)
    coords[pair(2, 1)] = F(11, 10)
    return StabilityParameter(3, 2, coords)


# -- nondegeneracy and labels ---------------------------------------------------


def test_nondegeneracy_examples():
    assert first_wall(param22(0, F(1, 2), 0)) is not None
    assert first_wall(param22(1, 0, -2)) is None
    assert first_wall(param22(1, F(7, 10), 0)) is None


def test_first_wall_reports_canonical_order():
    phi = param22(F(-1, 2), F(1, 2), 0)
    wall = first_wall(phi)
    assert wall == (pair(0, 1, 2), -1)


def test_polytope_label_examples():
    lab = polytope_label(param22(F(7, 10), F(-3, 10), F(11, 10)))
    p012, p11, p112 = admissible_pairs(2, 2)
    assert lab.label == {p012: 1, p11: 0, p112: 1}


def test_polytope_label_rejects_wall():
    with pytest.raises(DegenerateParameter) as err:
        polytope_label(param22(0, F(3, 2), 0))
    assert err.value.pair == pair(1, 1) and err.value.d == 1
    assert "wall" in str(err.value)


@given(st.integers(-30, 30), st.integers(1, 12))
@settings(max_examples=80)
def test_label_is_unique_integer_in_open_interval(numerator, denominator):
    value = F(numerator, denominator)
    phi = param22(value, 0, 0)
    if (value - F(1, 2)).denominator == 1:
        with pytest.raises(DegenerateParameter):
            polytope_label(phi)
    else:
        d = polytope_label(phi).label[pair(0, 1, 2)]
        assert d - F(1, 2) < value < d + F(1, 2)


# -- constructors -------------------------------------------------------------------


def test_parameter_requires_exact_domain():
    with pytest.raises(InvalidParameter):
        StabilityParameter(2, 2, {pair(1, 1): F(1)})
    with pytest.raises(InvalidParameter):
        StabilityParameter(2, 1, {pair(1, 1): F(1), pair(0, 1): F(0)})


def test_parameter_rejects_floats():
    # and every other value that is not an int or a Fraction, naming it
    p012, p11, p112 = admissible_pairs(2, 2)
    G = two_vertex_graph(2, 2, pair(1, 1))
    for value in (0.5, True, "1/3", Decimal("0.5"), None):
        with pytest.raises(InvalidParameter, match=re.escape(repr(value))):
            StabilityParameter(2, 2, {p012: value, p11: F(0), p112: F(0)})
        with pytest.raises(InvalidParameter, match=re.escape(repr(value))):
            GraphParameter(G, {"v1": value, "v2": F(1, 2)})


def test_parameter_keeps_a_given_fraction():
    p012, p11, p112 = admissible_pairs(2, 2)
    f = F(1, 3)
    assert StabilityParameter(2, 2, {p012: f, p11: 0, p112: 0}).phi_plus(p012) is f
    assert GraphParameter(two_vertex_graph(2, 2, pair(1, 1)), {"v1": f, "v2": 1 - f}).value("v1") is f


def _boundary_cases():
    """(name, build, read): build takes one value into a public constructor, read gets it back."""
    p012, p11, p112 = admissible_pairs(2, 2)
    G = two_vertex_graph(2, 2, pair(1, 1))
    return [
        ("StabilityParameter", lambda x: StabilityParameter(2, 2, {p012: x, p11: 0, p112: 0}),
         lambda out: out.phi_plus(p012)),
        ("GraphParameter", lambda x: GraphParameter(G, {"v1": x, "v2": 1 - x if type(x) in (int, F) else 0}),
         lambda out: out.value("v1")),
        ("DivisorClass.lam", lambda x: DivisorClass(2, 2, lam=x), lambda out: out.lam),
        ("DivisorClass.psi", lambda x: DivisorClass(2, 2, psi={2: x}), lambda out: out.coeffs[2]),
        ("DivisorClass.delta_irr", lambda x: DivisorClass(2, 2, delta_irr=x), lambda out: out.delta_irr),
        ("DivisorClass.delta", lambda x: DivisorClass(2, 2, delta={p11: x}),
         lambda out: out.coeffs[5]),  # the delta_(1,{1}) coefficient
        ("c * DivisorClass", lambda x: x * DivisorClass(2, 2, lam=1), lambda out: out.lam),
    ]


ANY_VALUE = st.one_of(
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.floats(),
    st.text(max_size=6) | st.sampled_from(["1/3", " 3 ", "-2", "0.5"]),
    st.fractions(max_denominator=1000),
    st.decimals(),
    st.none(),
)


@given(st.sampled_from(_boundary_cases()), ANY_VALUE)
@settings(max_examples=200, deadline=None)
def test_exact_value_boundary(case, value):
    # a value either enters as itself, exactly, or is refused with InvalidParameter; nothing else escapes
    name, build, read = case
    try:
        out = build(value)
    except InvalidParameter:
        assert type(value) not in (int, F), f"{name} refused {value!r}"
        return
    assert type(value) in (int, F), f"{name} accepted {value!r}"
    stored = read(out)
    assert type(stored) is F and stored == F(value)


def test_label_requires_exact_domain_and_integers():
    p012, p11, p112 = admissible_pairs(2, 2)
    with pytest.raises(InvalidParameter, match="missing"):
        PolytopeLabel(2, 2, {p012: 0, p11: 1})
    with pytest.raises(InvalidParameter, match="stray"):
        PolytopeLabel(2, 2, {p012: 0, p11: 1, p112: 1, pair(1, 1, 2, 3): 0})
    with pytest.raises(InvalidParameter, match="integers"):
        PolytopeLabel(2, 2, {p012: 0, p11: True, p112: 1})


@pytest.mark.parametrize("g, n", [(3, 3), (4, 5), (5, 7)])
def test_checked_and_unchecked_constructors_agree(g, n):
    # random_parameter and polytope_label build through _of; the public constructors re-check
    rng = random.Random(f"of:{g},{n}")
    pairs = list(admissible_pairs(g, n))
    for _ in range(3):
        phi = random_parameter(rng, g, n)
        label = polytope_label(phi)
        rng.shuffle(pairs)  # the public constructors take any key order
        coords = {p: phi.phi_plus(p) for p in pairs}
        by_pair = label.label
        d = {p: by_pair[p] for p in pairs}
        for built, public in ((phi, StabilityParameter(g, n, coords)), (label, PolytopeLabel(g, n, d))):
            assert built == public and hash(built) == hash(public) and repr(built) == repr(public)
            assert built.values == public.values and public.pairs == admissible_pairs(g, n)
        assert dict(zip(phi.pairs, phi.values)) == coords and label.label == d
    # extend_to_graph and stable_multidegree build through _of too, here on a 50-vertex ladder graph
    G = random_tree_graph(rng, "caterpillar", 50)
    pG = extend_to_graph(random_parameter(rng, genus(G), G.n), G)
    md = stable_multidegree(pG)
    for built, public in ((pG, GraphParameter(G, dict(pG.values))), (md, Multidegree(G, dict(md.deg)))):
        assert built == public and hash(built) == hash(public) and repr(built) == repr(public)


def test_phi_from_degrees_examples():
    phi = phi_from_degrees(2, 2, (3, -2))
    p012, p11, p112 = admissible_pairs(2, 2)
    assert phi.phi_plus(p012) == 1 and phi.phi_plus(p11) == 3 and phi.phi_plus(p112) == 1
    assert phi.phi_minus(p11) == -2
    assert phi_from_degrees(1, 2, (0, 0)).phi_plus(pair(0, 1, 2)) == 0
    assert first_wall(phi) is None


def test_phi_from_degrees_label_is_partial_sum():
    rng = random.Random(11)
    for g, n in GN_SET:
        for _ in range(5):
            degrees = random_degrees(rng, g, n)
            lab = polytope_label(phi_from_degrees(g, n, degrees))
            for p, d in lab.label.items():
                assert d == sum(degrees[j - 1] for j in p.S)


def test_phi_from_degrees_rejects_bad_sum():
    with pytest.raises(DegreeSumMismatch):
        phi_from_degrees(2, 2, (1, 1))
    with pytest.raises(DegreeSumMismatch):
        phi_from_degrees(2, 2, (1,))


def test_phi_from_label_round_trip():
    lab = PolytopeLabel(2, 2, dict(zip(admissible_pairs(2, 2), [0, 1, 1])))
    phi = phi_from_label(lab)
    assert first_wall(phi) is None
    assert polytope_label(phi) == lab
    single = PolytopeLabel(2, 1, {pair(1, 1): 1})
    assert phi_from_label(single).phi_plus(pair(1, 1)) == 1


@given(st.data())
@settings(max_examples=60)
def test_phi_from_label_round_trips_everywhere(data):
    g, n = data.draw(st.sampled_from(GN_SET))
    pairs = admissible_pairs(g, n)
    values = data.draw(st.lists(st.integers(-6, 6), min_size=len(pairs), max_size=len(pairs)))
    lab = PolytopeLabel(g, n, dict(zip(pairs, values)))
    assert polytope_label(phi_from_label(lab)) == lab


def test_canonical_parameter_examples():
    can = canonical_parameter(2, 2)
    p012, p11, p112 = admissible_pairs(2, 2)
    assert can.phi_plus(p012) == F(-1, 2)
    assert can.phi_plus(p11) == F(1, 2) and can.phi_plus(p112) == F(1, 2)
    assert canonical_parameter(2, 1).phi_plus(pair(1, 1)) == F(1, 2)
    for g, n in GN_SET:
        assert first_wall(canonical_parameter(g, n)) is not None
    # no admissible pairs at (1,1): vacuously off every wall
    assert first_wall(canonical_parameter(1, 1)) is None


# -- slope parameters -----------------------------------------------------------------


def test_phi_from_slope_examples():
    G = two_vertex_graph(2, 2, pair(1, 1))
    assert dict(phi_from_slope(G, {"v1": 3, "v2": 2}).values) == {
        "v1": F(1, 2),
        "v2": F(1, 2),
    }
    assert dict(phi_from_slope(G, {"v1": 3, "v2": 2}, {"v1": 1}).values) == {
        "v1": F(1, 10),
        "v2": F(9, 10),
    }
    with pytest.raises(NonAmple):
        phi_from_slope(G, {"v1": 1, "v2": 0})


def test_phi_from_slope_rejects_bool_polarization():
    G = two_vertex_graph(2, 2, pair(1, 1))
    with pytest.raises(NonAmple, match="got True at v1"):
        phi_from_slope(G, {"v1": True, "v2": 2})


def test_phi_from_slope_checks_its_twist():
    G = two_vertex_graph(2, 2, pair(1, 1))
    A = {"v1": 3, "v2": 2}
    with pytest.raises(InvalidParameter, match="got 'x' at v1"):
        phi_from_slope(G, A, {"v1": "x"})
    with pytest.raises(GraphMismatch, match="zz"):
        phi_from_slope(G, A, {"zz": 1})
    with pytest.raises(InvalidParameter, match="got True at v1"):
        phi_from_slope(G, A, {"v1": True})
    with pytest.raises(InvalidParameter, match="got 0.5 at v1"):
        phi_from_slope(G, A, {"v1": 0.5})


def test_phi_from_slope_rejects_stray_polarization_keys():
    # a polarization key that is not a vertex was ignored, as a twist key was before it
    G = two_vertex_graph(2, 2, pair(1, 1))
    message = "polarization A must be given on vertices of the graph only, got {'v1': 1, 'v2': 1, 'zz': 5}"
    with pytest.raises(GraphMismatch, match=f"^{re.escape(message)}$"):
        phi_from_slope(G, {"v1": 1, "v2": 1, "zz": 5})


def test_container_arguments_must_be_mappings():
    # a list, an int or None where a mapping belongs raised AttributeError or TypeError
    G = two_vertex_graph(2, 2, pair(1, 1))
    A = {"v1": 3, "v2": 2}
    for build, name in (
        (lambda: StabilityParameter(2, 2, [1, 2, 3]), "coordinates"),
        (lambda: PolytopeLabel(2, 2, 5), "label"),
        (lambda: GraphParameter(G, None), "values"),
        (lambda: DivisorClass(2, 2, psi=[1]), "psi"),
        (lambda: DivisorClass(2, 2, delta=[1]), "delta"),
        (lambda: phi_from_slope(G, [3, 2]), "polarization A"),
        (lambda: phi_from_slope(G, A, [1]), "twist M"),
    ):
        with pytest.raises(InvalidParameter, match=f"^{name} must be a mapping, got "):
            build()
    assert phi_from_slope(G, A, None) == phi_from_slope(G, A, {})

@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda G, pG: MarkedGraph([2], [], {1: "v1"}), InvalidGraph, "genera must be a mapping, got [2]"),
        (lambda G, pG: MarkedGraph({"v1": 2}, 5, {1: "v1"}), InvalidGraph, "edges must be iterable, got 5"),
        (lambda G, pG: MarkedGraph({"v1": 2}, [], 5), InvalidGraph, "markings must be a mapping, got 5"),
        (lambda G, pG: TorsionFreeDegree(G, [1, 0]), DegreeSumMismatch, "norm_deg must be a mapping, got [1, 0]"),
        (lambda G, pG: TorsionFreeDegree(G, 5), DegreeSumMismatch, "norm_deg must be a mapping, got 5"),
        (lambda G, pG: TorsionFreeDegree(G, {"v1": 1, "v2": 0}, 5), InvalidGraph, "failures must be iterable, got 5"),
        (lambda G, pG: contract(G, None), InvalidGraph, "edge_indices must be iterable, got None"),
        (lambda G, pG: normalize_pair(2, 2, 1, 5), InadmissiblePair, "markings must be iterable, got 5"),
        (lambda G, pG: ell(pG, 5, 0), GraphMismatch, "subset must be iterable, got 5"),
        (lambda G, pG: BoundaryPair(1, 5), InadmissiblePair, "S must be iterable, got 5"),
        (lambda G, pG: is_semistable(pG, None), GraphMismatch, "F must be a TorsionFreeDegree, got None"),
        (lambda G, pG: phi_from_degrees(2, 2, None), DegreeSumMismatch, "degrees must be iterable, got None"),
        (lambda G, pG: theta_pullback(phi_from_degrees(2, 2, [1, 0]), 5), DegreeSumMismatch, "degrees must be iterable, got 5"),
        (lambda G, pG: twist_label(polytope_label(phi_from_degrees(2, 2, [1, 0])), [1, 2]), InvalidParameter, "twist must be a mapping, got [1, 2]"),
        (lambda G, pG: twist_parameter(phi_from_degrees(2, 2, [1, 0]), 7), InvalidParameter, "twist must be a mapping, got 7"),
        (lambda G, pG: partial_degree(TorsionFreeDegree(G, {"v1": 1, "v2": 0}), 5), GraphMismatch, "subset must be iterable, got 5"),
    ],
    ids=[
        "graph-genera", "graph-edges", "graph-markings", "sheaf-list", "sheaf-int", "sheaf-failures",
        "contract", "normalize-pair", "ell", "boundary-pair", "is-semistable", "phi-from-degrees", "theta-pullback",
        "twist-label", "twist-parameter", "partial-degree",
    ],
)
def test_container_arguments_raise_their_own_error(build, error, message):
    # a list, an int or None where a mapping or an iterable belongs raised a bare TypeError or AttributeError
    G = two_vertex_graph(2, 2, pair(1, 1))
    pG = extend_to_graph(phi_from_degrees(2, 2, [1, 0]), G)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(G, pG)


NINES = 9 * 10**4300  # its sum with itself has more digits than str() writes


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda G: GraphParameter(G, {"v1": NINES, "v2": NINES}), InvalidParameter),
        (lambda G: TorsionFreeDegree(G, {"v1": NINES, "v2": NINES}), DegreeSumMismatch),
        (lambda G: phi_from_degrees(2, 2, [NINES, NINES]), DegreeSumMismatch),
    ],
    ids=["graph-parameter", "sheaf", "phi-from-degrees"],
)
def test_sum_message_past_the_digit_limit_gives_the_digit_count(build, error):
    # the messages wrote the wrong total with str(), which raised ValueError past the digit limit
    limit = sys.get_int_max_str_digits()
    G = two_vertex_graph(2, 2, pair(1, 1))
    with pytest.raises(error, match=f"got a number with 4302 digits, over Python's {limit}-digit limit"):
        build(G)


HUGE_THIRD = Fraction(10**5000, 3)  # its numerator has more digits than repr() writes


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda pG: phi_from_degrees(2, 3, [10**5000, 1]), DegreeSumMismatch, "expected 3 integer degrees, got"),
        (lambda pG: ell(pG, ["v1"], HUGE_THIRD), InvalidParameter, "d must be an integer, got"),
        (
            lambda pG: PolytopeLabel(2, 2, {p: HUGE_THIRD if p == pair(1, 1) else 0 for p in admissible_pairs(2, 2)}),
            InvalidParameter,
            "label values must be integers, got",
        ),
    ],
    ids=["degree-count", "ell-d", "label-value"],
)
def test_rejected_value_past_the_digit_limit_is_named_by_the_limit(build, error, message):
    # the messages wrote the rejected value with repr(), which raised ValueError past the digit limit
    limit = sys.get_int_max_str_digits()
    pG = extend_to_graph(phi_from_degrees(2, 2, [1, 0]), two_vertex_graph(2, 2, pair(1, 1)))
    with pytest.raises(error, match=f"^{message} a value over Python's {limit}-digit limit for writing an integer"):
        build(pG)


LONG = 10**5000  # more digits than repr() writes


def _two_vertex_route(call):
    """A route calling call(G, pG, F) on the two-vertex graph of (1, {1}) at (2, 2), a parameter and a sheaf there."""

    def build():
        G = two_vertex_graph(2, 2, pair(1, 1))
        pG = extend_to_graph(phi_from_degrees(2, 2, [1, 0]), G)
        return call(G, pG, TorsionFreeDegree(G, {"v1": 1, "v2": 0}))

    return build


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            _two_vertex_route(lambda G, pG, F: TorsionFreeDegree(G, {"v1": HUGE_THIRD, "v2": 0})),
            DegreeSumMismatch,
            "degrees must be integers, got ",
        ),
        (lambda: StabilityParameter(2, 2, LONG), InvalidParameter, "coordinates must be a mapping, got "),
        (
            lambda: StabilityParameter(2, 2, {p: (LONG,) for p in admissible_pairs(2, 2)}),
            InvalidParameter,
            "expected an int or a Fraction, got ",
        ),
        (lambda: DivisorClass(2, 2, psi={1: (LONG,)}), InvalidParameter, "expected an int or a Fraction, got "),
        (lambda: DivisorClass(2, 2, psi={LONG: 1}), BasisMismatch, "psi index must lie in 1..2, got "),
        (lambda: admissible_pairs(HUGE_THIRD, 2), InvalidGN, "g and n must be integers, got g="),
        (
            lambda: normalize_pair(2, 2, HUGE_THIRD, [1]),
            InadmissiblePair,
            "side genus must be a nonnegative integer, got i=",
        ),
        (lambda: BoundaryPair(HUGE_THIRD, {1}), InadmissiblePair, "side genus must be a nonnegative integer, got i="),
        (
            lambda: MarkedGraph({"a": HUGE_THIRD}, [], {1: "a"}),
            InvalidGraph,
            "genus of a must be a nonnegative integer, got ",
        ),
        (lambda: MarkedGraph({LONG: 1}, [], {1: LONG}), InvalidGraph, "vertex ids must be nonempty strings, got "),
        (
            _two_vertex_route(lambda G, pG, F: phi_from_slope(G, {"v1": HUGE_THIRD, "v2": 1})),
            NonAmple,
            "polarization must be a positive integer on every vertex, got ",
        ),
        (
            _two_vertex_route(lambda G, pG, F: phi_from_slope(G, {"v1": 1, "v2": 1}, {"v1": HUGE_THIRD})),
            InvalidParameter,
            "twist M must be an integer on every vertex, got ",
        ),
        (
            lambda: twist_label(polytope_label(phi_from_degrees(2, 2, [1, 0])), {pair(1, 1): HUGE_THIRD}),
            InvalidParameter,
            "twist coefficients must be integers, got ",
        ),
        (
            lambda: enumerate_tree_type_graphs(1, 1, HUGE_THIRD),
            InvalidGN,
            "max_vertices must be a positive integer, got ",
        ),
        (
            _two_vertex_route(lambda G, pG, F: is_semistable(pG, F, mode=LONG)),
            MalformedInput,
            "mode must be 'elementary' or 'all', got ",
        ),
    ],
    ids=[
        "sheaf-degree",
        "parameter-not-a-mapping",
        "parameter-coordinate",
        "class-psi-coefficient",
        "class-psi-index",
        "admissible-pairs-g",
        "normalize-pair-i",
        "boundary-pair-i",
        "graph-genus",
        "graph-vertex-id",
        "slope-polarization",
        "slope-twist",
        "twist-coefficient",
        "corpus-max-vertices",
        "semistability-mode",
    ],
)
def test_every_library_message_names_a_value_past_the_digit_limit(build, error, message):
    # these messages wrote the rejected value with !r, which raised ValueError past the digit limit
    limit = sys.get_int_max_str_digits()
    with pytest.raises(error, match=f"^{re.escape(message)}a value over Python's {limit}-digit limit"):
        build()


_OVER_LIMIT = f"a value over Python's {sys.get_int_max_str_digits()}-digit limit for writing an integer"


@pytest.mark.parametrize(
    "build, error, message",
    [
        (_two_vertex_route(lambda G, pG, F: partial_degree(F, [1, "v1"])), GraphMismatch,
         "subset ['v1', 1] contains non-vertices"),
        (_two_vertex_route(lambda G, pG, F: ell(pG, [1, "v1"], 0)), GraphMismatch, "subset ['v1', 1] contains non-vertices"),
        (lambda: BoundaryPair(1, [1, "a"]), InadmissiblePair, "markings must be positive integers, got ['a', 1]"),
        (lambda: normalize_pair(2, 2, 0, [1, "a"]), InadmissiblePair, "markings ['a', 1] not contained in 1..2"),
        (_two_vertex_route(lambda G, pG, F: partial_degree(F, [["v1"]])), GraphMismatch,
         "subset must hold hashable values, got [['v1']]"),
        (_two_vertex_route(lambda G, pG, F: ell(pG, [["v1"]], 0)), GraphMismatch,
         "subset must hold hashable values, got [['v1']]"),
        (lambda: BoundaryPair(1, [[1]]), InadmissiblePair, "S must hold hashable values, got [[1]]"),
        (lambda: BoundaryPair(1, [LONG]), InadmissiblePair, f"marking 1 must lie on the S side, got S={_OVER_LIMIT}"),
        (lambda: MarkedGraph({"a": 1}, [], {LONG: "a"}), InvalidGraph, f"markings must be exactly 1..n, got {_OVER_LIMIT}"),
        (_two_vertex_route(lambda G, pG, F: partial_degree(F, [LONG])), GraphMismatch,
         f"subset {_OVER_LIMIT} contains non-vertices"),
    ],
    ids=[
        "partial-degree-mixed",
        "ell-mixed",
        "boundary-pair-mixed",
        "normalize-pair-mixed",
        "partial-degree-unhashable",
        "ell-unhashable",
        "boundary-pair-unhashable",
        "boundary-pair-long",
        "graph-markings-long",
        "partial-degree-long",
    ],
)
def test_messages_writing_a_collection_survive_any_member(build, error, message):
    # sorted() raised TypeError on members that do not compare, frozenset() on unhashable ones,
    # and the written list raised ValueError on an int past the digit limit
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


_LONG_PAIR_TEXT = (
    "(1,{1,a number with 5001 digits,"
    f" over Python's {sys.get_int_max_str_digits()}-digit limit for writing an integer}})"
)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda p: two_vertex_graph(2, 2, p), InadmissiblePair),
        (lambda p: DivisorClass(2, 2, delta={p: 1}), BasisMismatch),
        (lambda p: twist_label(polytope_label(phi_from_degrees(2, 2, [1, 0])), {p: 1}), InadmissiblePair),
        (lambda p: StabilityParameter(2, 2, {p: 1}), InvalidParameter),
        (lambda p: phi_from_degrees(2, 2, [1, 0]).phi_plus(p), InadmissiblePair),
    ],
    ids=["two-vertex-graph", "class-delta", "twist-label", "parameter", "phi-plus"],
)
def test_a_pair_holding_a_long_marking_is_written_by_its_digit_count(build, error):
    # BoundaryPair.__str__ wrote each marking with str(), which raised ValueError past the digit limit
    with pytest.raises(error, match=re.escape(_LONG_PAIR_TEXT)):
        build(BoundaryPair(1, {1, LONG}))


def test_boundary_pair_text():
    assert str(BoundaryPair(1, {2, 1})) == "(1,{1,2})"
    assert str(BoundaryPair(1, {1, LONG})) == _LONG_PAIR_TEXT


@pytest.mark.parametrize(
    "call",
    [
        lambda G, pG, F: pG.subset_sum(frozenset({"zz"})),
        lambda G, pG, F: pG.subset_sum([["v1"]]),
        lambda G, pG, F: pG.subset_sum(5),
        lambda G, pG, F: stability_inequality(pG, F, frozenset({"zz"}), True),
    ],
    ids=["non-vertex", "unhashable", "not-iterable", "stability-inequality"],
)
def test_subset_sum_refuses_a_subset_that_is_not_of_vertices(call):
    # the sum raised KeyError or TypeError
    with pytest.raises(GraphMismatch):
        _two_vertex_route(call)()


@pytest.mark.parametrize("d", [0.5, "x", True, None, Fraction(1)], ids=["float", "str", "bool", "none", "fraction"])
def test_ell_takes_an_integer_d(d):
    # a float d returned a float, a string raised TypeError, and True was read as 1
    pG = extend_to_graph(phi_from_degrees(2, 2, [1, 0]), two_vertex_graph(2, 2, pair(1, 1)))
    with pytest.raises(InvalidParameter, match=f"^d must be an integer, got {re.escape(repr(d))}$"):
        ell(pG, ["v1"], d)


def test_phi_from_slope_without_twist_is_half_dualizing(corpus3):
    rng = random.Random(3)
    for graphs in corpus3.values():
        for G in graphs[::5]:
            A = {v: rng.randint(1, 5) for v in G.vertices}
            pG = phi_from_slope(G, A)
            assert all(pG.value(v) == F(dualizing_degree(G, v), 2) for v in G.vertices)


def test_canonical_extension_is_half_dualizing(corpus3):
    # The canonical coordinates extend to exactly half the dualizing degree on every graph.
    for (g, n), graphs in corpus3.items():
        can = canonical_parameter(g, n)
        for G in graphs[::3]:
            pG = extend_to_graph(can, G)
            assert all(pG.value(v) == F(dualizing_degree(G, v), 2) for v in G.vertices)


# -- extension -----------------------------------------------------------------------


def test_extend_path_example(path111, phi32_path):
    pG = extend_to_graph(phi32_path, path111)
    assert [pG.value(v) for v in path111.vertices] == [F(3, 10), F(4, 5), F(9, 10)]


def test_extend_two_vertex_is_coordinates():
    for g, n in GN_SET:
        rng = random.Random(g * 10 + n)
        phi = random_parameter(rng, g, n)
        for p in admissible_pairs(g, n):
            G = two_vertex_graph(g, n, p)
            pG = extend_to_graph(phi, G)
            assert pG.value("v1") == phi.phi_plus(p)
            assert pG.value("v2") == phi.phi_minus(p)


def test_extend_single_vertex():
    G = MarkedGraph({"v": 2}, [], {1: "v"})
    phi = StabilityParameter(2, 1, {pair(1, 1): F(7, 10)})
    assert dict(extend_to_graph(phi, G).values) == {"v": F(1)}


def test_extend_errors(path111):
    cycle = MarkedGraph({"a": 1, "b": 1}, [("a", "b"), ("a", "b")], {1: "a", 2: "b"})
    with pytest.raises(NotTreeLike):
        extend_to_graph(phi_from_degrees(3, 2, (1, 1)), cycle)
    with pytest.raises(GraphMismatch):
        extend_to_graph(phi_from_degrees(2, 2, (1, 0)), path111)


def _solve_compatibility_system(phi, G):
    """Independent oracle: Gaussian elimination on the two-vertex difference equations."""
    verts = list(G.vertices)
    index = {v: k for k, v in enumerate(verts)}
    rows = []
    # one equation per non-loop edge: sum(side with 1) - sum(other) = phi+ - phi-
    for i in G.nonloop_indices:
        p, side = boundary_pair_of_edge(G, i)
        row = [F(1) if v in side else F(-1) for v in verts]
        rows.append((row, phi.phi_plus(p) - phi.phi_minus(p)))
    rows.append(([F(1)] * len(verts), F(genus(G) - 1)))

    matrix = [row + [rhs] for row, rhs in rows]
    cols = len(verts)
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        matrix[rank] = [x / matrix[rank][col] for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    assert rank == cols, "compatibility system should be nondegenerate"
    solution = {}
    for r in range(rank):
        col = next(c for c in range(cols) if matrix[r][c] != 0)
        solution[verts[col]] = matrix[r][cols]
    return solution


def test_extend_matches_linear_system_oracle(corpus3):
    rng = random.Random(17)
    for (g, n), graphs in corpus3.items():
        phi = random_parameter(rng, g, n)
        for G in graphs[::4]:
            pG = extend_to_graph(phi, G)
            assert dict(pG.values) == _solve_compatibility_system(phi, G)


def test_extend_gives_each_edge_side_its_coordinate(path111, phi32_path):
    pG = extend_to_graph(phi32_path, path111)
    for i in path111.nonloop_indices:
        side = reference_side(path111, i)
        assert pG.subset_sum(side) == phi32_path.phi_plus(reference_pair(path111, side))


def test_extend_sums_to_target(corpus3):
    rng = random.Random(23)
    for (g, n), graphs in corpus3.items():
        phi = random_parameter(rng, g, n)
        for G in graphs[::4]:
            assert sum(extend_to_graph(phi, G).values.values()) == g - 1


# -- compatibility -----------------------------------------------------------------------


def test_check_compatibility_path_example(path111, phi32_path):
    pG = extend_to_graph(phi32_path, path111)
    H, _ = contract(path111, [0])
    pH = extend_to_graph(phi32_path, H)
    assert [pH.value(v) for v in H.vertices] == [F(11, 10), F(9, 10)]
    assert check_compatibility(pG, [0], pH)


def test_check_compatibility_empty_and_full(path111, phi32_path):
    pG = extend_to_graph(phi32_path, path111)
    assert check_compatibility(pG, [], pG)
    other = GraphParameter(path111, {"v1": F(1), "v2": F(1), "v3": F(0)})
    assert not check_compatibility(other, [], pG)

    H, _ = contract(path111, [0, 1])
    assert check_compatibility(pG, [0, 1], GraphParameter(H, {"v1": F(2)}))


def test_check_compatibility_wrong_graph(path111, phi32_path):
    pG = extend_to_graph(phi32_path, path111)
    with pytest.raises(GraphMismatch):
        check_compatibility(pG, [0], pG)


# -- the wall functional -----------------------------------------------------------------


def test_ell_examples():
    G = two_vertex_graph(2, 2, pair(1, 1))
    pG = GraphParameter(G, {"v1": F(7, 10), "v2": F(3, 10)})
    assert ell(pG, {"v1"}, 1) == F(4, 5)
    assert ell(pG, {"v1"}, 0) == F(-1, 5)
    with pytest.raises(EmptyOrFullSubset):
        ell(pG, set(), 0)
    with pytest.raises(EmptyOrFullSubset):
        ell(pG, {"v1", "v2"}, 0)


def test_ell_translation_identity_two_vertex():
    G = two_vertex_graph(2, 2, pair(1, 1))
    phi = GraphParameter(G, {"v1": F(7, 10), "v2": F(3, 10)})
    shifted = GraphParameter(G, {"v1": F(17, 10), "v2": F(-7, 10)})
    assert ell(shifted, {"v1"}, 1) == ell(phi, {"v1"}, 0)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_ell_translation_identity_property(data):
    G = two_vertex_graph(3, 2, pair(1, 1))
    a = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=12))
    psi1 = data.draw(st.integers(-5, 5))
    d = data.draw(st.integers(-6, 6))
    phi = GraphParameter(G, {"v1": a, "v2": 2 - a})
    shifted = GraphParameter(G, {"v1": a + psi1, "v2": 2 - a - psi1})
    assert ell(shifted, {"v1"}, d) == ell(phi, {"v1"}, d - psi1)


def test_nondegenerate_extension_avoids_every_wall(corpus3):
    # ell is nonzero for all integers d exactly when phi(subset) - 1/2 is not an integer.
    rng = random.Random(29)
    for (g, n), graphs in corpus3.items():
        phi = random_parameter(rng, g, n)
        for G in graphs[::4]:
            pG = extend_to_graph(phi, G)
            for subset in elementary_subgraphs(G):
                crossing = len(crossing_edge_indices(G, subset))
                assert (pG.subset_sum(subset) - F(crossing, 2)).denominator != 1
                for d in range(-8, 9):
                    assert ell(pG, subset, d) != 0


# -- flatness and reducedness ---------------------------------------------------------------


def test_theta_flat_examples():
    pairs = admissible_pairs(2, 2)
    assert is_theta_flat(phi_from_label(PolytopeLabel(2, 2, dict(zip(pairs, [0, 1, 1])))))
    assert not is_theta_flat(phi_from_degrees(2, 2, (3, -2)))
    low = PolytopeLabel(2, 2, {p: p.i - 1 for p in pairs})
    assert is_theta_flat(phi_from_label(low))
    with pytest.raises(DegenerateParameter):
        is_theta_flat(canonical_parameter(2, 2))


def test_theta_reduced_examples():
    pairs = admissible_pairs(2, 2)
    flat = PolytopeLabel(2, 2, {p: p.i for p in pairs})
    assert is_theta_reduced(phi_from_label(flat))
    bumped = {p: p.i for p in pairs}
    bumped[pair(1, 1)] = 3
    assert not is_theta_reduced(phi_from_label(PolytopeLabel(2, 2, bumped)))
    bumped[pair(1, 1)] = 2
    assert is_theta_reduced(phi_from_label(PolytopeLabel(2, 2, bumped)))


def test_flat_implies_reduced():
    rng = random.Random(31)
    for g, n in GN_SET:
        for _ in range(10):
            phi = random_parameter(rng, g, n)
            if is_theta_flat(phi):
                assert is_theta_reduced(phi)


# -- twists --------------------------------------------------------------------------------


def test_twist_label_examples():
    pairs = admissible_pairs(2, 2)
    lab = PolytopeLabel(2, 2, dict(zip(pairs, [1, 3, 1])))
    up = twist_label(lab, {pair(1, 1): 1})
    assert up.label[pair(1, 1)] == 4 and up.label[pairs[0]] == 1
    assert twist_label(lab, {}) == lab


def test_connecting_twist_examples():
    pairs = admissible_pairs(2, 2)
    lab1 = polytope_label(phi_from_degrees(2, 2, (3, -2)))
    lab2 = PolytopeLabel(2, 2, dict(zip(pairs, [0, 1, 1])))
    t = connecting_twist(lab1, lab2)
    assert t == {pairs[0]: -1, pairs[1]: -2, pairs[2]: 0}
    assert twist_label(lab1, t) == lab2
    assert connecting_twist(lab1, lab1) == {p: 0 for p in pairs}
    back = connecting_twist(lab2, lab1)
    assert back == {p: -t[p] for p in pairs}


@given(st.data())
@settings(max_examples=60)
def test_twist_group_action_laws(data):
    g, n = data.draw(st.sampled_from(GN_SET))
    pairs = admissible_pairs(g, n)
    m = len(pairs)
    d0 = data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m))
    t1 = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    t2 = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    lab = PolytopeLabel(g, n, dict(zip(pairs, d0)))
    tw1 = dict(zip(pairs, t1))
    tw2 = dict(zip(pairs, t2))
    combined = {p: tw1[p] + tw2[p] for p in pairs}
    assert twist_label(twist_label(lab, tw1), tw2) == twist_label(lab, combined)


def test_label_translation_matches_parameter_translation():
    rng = random.Random(37)
    for g, n in GN_SET:
        phi = random_parameter(rng, g, n)
        twist = {p: rng.randint(-3, 3) for p in admissible_pairs(g, n)}
        assert polytope_label(twist_parameter(phi, twist)) == twist_label(
            polytope_label(phi), twist
        )


def test_seeded_samplers_keep_their_draw_sequence():
    # `jacwall check` draws from these, so its output for a JACWALL_SEED depends on this sequence
    rng = random.Random(7)
    assert random_degrees(rng, 3, 3) == (2, -1, 1)
    assert random_degrees(rng, 2, 2) == (-3, 4)
    phi = random_parameter(rng, 2, 2)
    assert [phi.phi_plus(p) for p in phi.pairs] == [F(-7, 3), F(-14, 9), F(-3)]
