import operator
import random
import re
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
    InadmissiblePair,
    InvalidGN,
    InvalidParameter,
    NoNegativeDegree,
    PolytopeLabel,
    admissible_pairs,
    basis_labels,
    binom2,
    canonical_parameter,
    connecting_twist,
    hain_class,
    mueller_class,
    mueller_comparison,
    phi_from_degrees,
    phi_from_label,
    polytope_label,
    stable_pairs_class,
    theta_pullback,
    twist_divisor_coeffs,
    wall_crossing,
)
from jacwall.divisor_classes import compare_classes
from testutil import GN_SET, random_degrees, random_parameter, reference_classes, wall_crossing_single

F = Fraction


def pair(i, *marks):
    return BoundaryPair(i, frozenset(marks))


def flat_label(g, n):
    return PolytopeLabel(g, n, {p: p.i for p in admissible_pairs(g, n)})


# -- generalized binomials -------------------------------------------------------


@given(st.integers(-50, 50))
def test_binom2_symmetry_and_pascal(m):
    assert binom2(m) == m * (m - 1) // 2
    assert binom2(m) == binom2(1 - m)
    assert binom2(m) == binom2(m - 1) + (m - 1)
    # the form linking the absolute-value coefficients to wall-crossing terms
    assert binom2(m) == binom2(2 - m) + (m - 1)


def test_binom2_small_values():
    assert [binom2(m) for m in (-2, -1, 0, 1, 2, 3)] == [3, 1, 0, 0, 1, 3]


# -- the class container -----------------------------------------------------------


def test_class_drops_zero_coefficients():
    c = DivisorClass(2, 2, lam=0, psi={1: F(0), 2: F(3)}, delta={pair(1, 1): F(0)})
    assert dict(c.psi) == {2: F(3)} and dict(c.delta) == {}
    assert c.coeffs[1] == 0 and c.delta.get(pair(1, 1), 0) == 0


def test_class_rejects_bad_basis_keys():
    with pytest.raises(BasisMismatch):
        DivisorClass(2, 2, psi={3: F(1)})
    with pytest.raises(BasisMismatch):
        DivisorClass(2, 2, delta={pair(2, 1): F(1)})  # needs #S <= n-2 at i=g
    with pytest.raises(BasisMismatch):
        DivisorClass(2, 2, psi={5: F(1)})


def test_bool_is_not_a_psi_index():
    # True == 1, so a bool key used to read and write psi_1
    with pytest.raises(BasisMismatch):
        DivisorClass(2, 2, psi={True: F(1)})
    with pytest.raises(BasisMismatch):
        DivisorClass(2, 2, psi={2: F(1), True: F(1)})  # also after a valid key


def test_class_rejects_inexact_coefficients():
    # True and "1/2" used to pass as 1 and 1/2
    for value in (0.5, True, "1/2", " 3 ", Decimal("0.5"), None):
        message = re.escape(repr(value))
        with pytest.raises(InvalidParameter, match=message):
            DivisorClass(2, 2, lam=value)
        with pytest.raises(InvalidParameter, match=message):
            DivisorClass(2, 2, psi={1: value})
        with pytest.raises(InvalidParameter, match=message):
            DivisorClass(2, 2, delta_irr=value)
        with pytest.raises(InvalidParameter, match=message):
            DivisorClass(2, 2, delta={pair(1, 1): value})
        with pytest.raises(InvalidParameter, match=message):
            value * DivisorClass(2, 2, lam=1)


def test_degree_routes_check_gn_first():
    for route in (phi_from_degrees, stable_pairs_class, hain_class, mueller_class, compare_classes):
        with pytest.raises(InvalidGN):
            route(True, 3, [-1, 1, 0])
        with pytest.raises(InvalidGN):
            route(2, 0, [])


def test_class_algebra_examples():
    a = DivisorClass(2, 2, lam=-1, psi={1: F(6)})
    b = DivisorClass(2, 2, delta_irr=F(1, 8))
    assert 1 * a + 0 * b == a
    assert 1 * a + -1 * a == DivisorClass(2, 2)
    doubled = 2 * DivisorClass(2, 2, lam=1) + 1 * DivisorClass(2, 2)
    assert doubled.lam == 2
    with pytest.raises(BasisMismatch):
        1 * a + 1 * DivisorClass(2, 1)


def test_class_arithmetic_dunders():
    a = DivisorClass(2, 2, lam=1, psi={1: F(2)})
    assert not any((a - a).coeffs)
    assert (2 * a).coeffs[1] == 4
    assert (-a).lam == -1


def test_classes_hash_by_value():
    # DivisorClass defined __eq__ without __hash__, so Python made it unhashable
    a, b = DivisorClass(2, 2, lam=3), DivisorClass(2, 2, lam=F(3))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("other", [5, None, F(1, 2), "x"])
@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_class_arithmetic_with_a_non_class_raises_type_error(op, other):
    # _check_same_space read other.g, so a class plus or minus a non-class raised AttributeError
    with pytest.raises(TypeError, match="unsupported operand"):
        op(DivisorClass(2, 2, lam=1), other)
    with pytest.raises(TypeError):
        op(other, DivisorClass(2, 2, lam=1))


def test_class_coefficients_follow_the_basis_labels():
    c = DivisorClass(2, 2, lam=-1, psi={2: F(3)}, delta_irr=F(1, 8), delta={pair(1, 1): F(-3)})
    assert basis_labels(2, 2) == (
        "lambda", "psi_1", "psi_2", "delta_irr", "delta_(0,{1,2})", "delta_(1,{1})", "delta_(1,{1,2})"
    )
    assert c.coeffs == (F(-1), F(0), F(3), F(1, 8), F(0), F(-3), F(0))
    assert repr(c) == "DivisorClass(-1*lambda + 3*psi_2 + 1/8*delta_irr + -3*delta_(1,{1}))"
    assert c.delta.get(pair(2, 1), 0) == 0  # not a basis element at (2,2)
    with pytest.raises(BasisMismatch):
        c + DivisorClass(2, 1)
    with pytest.raises(BasisMismatch):
        c - DivisorClass(3, 2)
    assert c != DivisorClass(2, 1)


# -- theta pullback ------------------------------------------------------------------


def test_theta_pullback_at_own_parameter():
    cls = theta_pullback(phi_from_degrees(2, 2, (3, -2)), (3, -2))
    assert cls == DivisorClass(2, 2, lam=-1, psi={1: F(6), 2: F(1)})


def test_theta_pullback_flat_example():
    phi = phi_from_label(PolytopeLabel(2, 2, dict(zip(admissible_pairs(2, 2), [0, 1, 1]))))
    cls = theta_pullback(phi, (3, -2))
    assert cls == DivisorClass(
        2,
        2,
        lam=-1,
        psi={1: F(6), 2: F(1)},
        delta={pair(0, 1, 2): F(-1), pair(1, 1): F(-3)},
    )


def test_theta_pullback_same_on_both_flat_choices():
    rng = random.Random(71)
    for g, n in [(2, 2), (3, 2)]:
        degrees = random_degrees(rng, g, n)
        low = PolytopeLabel(g, n, {p: p.i - 1 for p in admissible_pairs(g, n)})
        high = flat_label(g, n)
        assert theta_pullback(phi_from_label(low), degrees) == theta_pullback(
            phi_from_label(high), degrees
        )


def test_theta_pullback_errors():
    with pytest.raises(DegreeSumMismatch):
        theta_pullback(phi_from_degrees(2, 2, (3, -2)), (1, 1))
    with pytest.raises(DegenerateParameter):
        theta_pullback(canonical_parameter(2, 2), (3, -2))


# -- wall crossing --------------------------------------------------------------------


def test_wall_crossing_single_examples():
    assert wall_crossing_single(2, 2, pair(1, 1), 3) == DivisorClass(
        2, 2, delta={pair(1, 1): F(2)}
    )
    assert not any(wall_crossing_single(2, 2, pair(1, 1), 1).coeffs)
    assert wall_crossing_single(2, 2, pair(0, 1, 2), 1) == DivisorClass(
        2, 2, delta={pair(0, 1, 2): F(1)}
    )
    with pytest.raises(InadmissiblePair):
        wall_crossing_single(2, 1, pair(0, 1), 0)


def test_wall_crossing_example():
    phi1 = phi_from_degrees(2, 2, (3, -2))
    phi2 = phi_from_label(PolytopeLabel(2, 2, dict(zip(admissible_pairs(2, 2), [0, 1, 1]))))
    assert wall_crossing(phi1, phi2) == DivisorClass(
        2, 2, delta={pair(0, 1, 2): F(-1), pair(1, 1): F(-3)}
    )
    assert not any(wall_crossing(phi1, phi1).coeffs)


def test_wall_crossing_cocycle():
    rng = random.Random(73)
    for g, n in GN_SET:
        phis = [random_parameter(rng, g, n) for _ in range(3)]
        total = (
            wall_crossing(phis[0], phis[1])
            + wall_crossing(phis[1], phis[2])
            + wall_crossing(phis[2], phis[0])
        )
        assert not any(total.coeffs)


def test_wall_crossing_matches_pullback_difference():
    rng = random.Random(79)
    for g, n in GN_SET:
        phi1 = random_parameter(rng, g, n)
        phi2 = random_parameter(rng, g, n)
        degrees = random_degrees(rng, g, n)
        diff = theta_pullback(phi2, degrees) - theta_pullback(phi1, degrees)
        assert diff == wall_crossing(phi1, phi2)


# -- the comparison classes ---------------------------------------------------------------


GOLD_22 = {
    "lam": F(-1),
    "psi": {1: F(6), 2: F(1)},
    "delta": {pair(0, 1, 2): F(-1), pair(1, 1): F(-3)},
}


def test_stable_pairs_example():
    cls = stable_pairs_class(2, 2, (3, -2))
    assert cls == DivisorClass(2, 2, lam=GOLD_22["lam"], psi=GOLD_22["psi"], delta=GOLD_22["delta"])
    flat = theta_pullback(phi_from_label(flat_label(2, 2)), (3, -2))
    assert cls == flat


def test_hain_example():
    cls = hain_class(2, 2, (3, -2))
    assert cls.delta_irr == F(1, 8)
    assert cls - stable_pairs_class(2, 2, (3, -2)) == DivisorClass(2, 2, delta_irr=F(1, 8))


def test_hain_minus_stable_pairs_everywhere():
    rng = random.Random(83)
    for g, n in GN_SET:
        for _ in range(5):
            degrees = random_degrees(rng, g, n)
            assert hain_class(g, n, degrees) - stable_pairs_class(g, n, degrees) == DivisorClass(
                g, n, delta_irr=F(1, 8)
            )


def test_mueller_example_equals_stable_pairs_when_t_empty():
    cls = mueller_class(2, 2, (3, -2))
    assert cls == stable_pairs_class(2, 2, (3, -2))
    t_set, diff = mueller_comparison(2, 2, (3, -2))
    assert t_set == [] and not any(diff.coeffs)


def test_mueller_absolute_value_coefficient():
    cls = mueller_class(3, 3, (1, 2, -1))
    assert cls.delta[pair(2, 1)] == -1  # -C(|1-2|+1, 2)


def test_mueller_requires_negative_degree():
    with pytest.raises(NoNegativeDegree):
        mueller_class(2, 2, (1, 0))
    with pytest.raises(NoNegativeDegree):
        mueller_comparison(2, 2, (1, 0))


def test_mueller_comparison_example():
    t_set, diff = mueller_comparison(3, 3, (1, 2, -1))
    assert t_set == [pair(2, 1), pair(3, 1)]
    assert diff == DivisorClass(3, 3, delta={pair(2, 1): F(1), pair(3, 1): F(2)})
    assert mueller_class(3, 3, (1, 2, -1)) + diff == stable_pairs_class(3, 3, (1, 2, -1))


def test_mueller_equals_stable_pairs_iff_t_empty():
    rng = random.Random(89)
    for g, n in GN_SET:
        for _ in range(6):
            degrees = random_degrees(rng, g, n)
            if not any(d < 0 for d in degrees):
                continue
            t_set, _ = mueller_comparison(g, n, degrees)
            equal = mueller_class(g, n, degrees) == stable_pairs_class(g, n, degrees)
            assert equal == (not t_set)


IDENTITY_NAMES = [
    "pullback(phi_dvec) has no boundary terms",
    "pullback(flat phi) = stable-pairs",
    "hain = stable-pairs + delta_irr/8",
    "mueller + diff = stable-pairs",
]


def test_class_identities_hold_in_order():
    rng = random.Random(97)
    for g, n in GN_SET:
        for _ in range(6):
            degrees = random_degrees(rng, g, n)
            identities = compare_classes(g, n, degrees).identities
            expected = IDENTITY_NAMES if any(d < 0 for d in degrees) else IDENTITY_NAMES[:3]
            assert identities == [(name, True) for name in expected]


def test_compare_classes_columns_and_mueller_parts():
    found = compare_classes(3, 3, (1, 2, -1))
    assert list(found.classes) == ["pullback(phi_d)", "stable-pairs", "hain", "mueller"]
    assert found.classes["mueller"] == mueller_class(3, 3, (1, 2, -1))
    assert (found.T, found.diff) == mueller_comparison(3, 3, (1, 2, -1))
    nonnegative = compare_classes(3, 3, (1, 1, 0))
    assert list(nonnegative.classes) == ["pullback(phi_d)", "stable-pairs", "hain"]
    assert nonnegative.T is None and nonnegative.diff is None


# -- twist divisor coefficients -------------------------------------------------------------


def test_twist_divisor_coeffs_examples():
    pairs = admissible_pairs(2, 2)
    flat = phi_from_label(PolytopeLabel(2, 2, dict(zip(pairs, [0, 1, 1]))))
    coeffs = twist_divisor_coeffs(flat, (3, -2))
    assert coeffs == {pairs[0]: 1, pairs[1]: 2, pairs[2]: 0}

    phi_d = phi_from_degrees(2, 2, (3, -2))
    assert all(c == 0 for c in twist_divisor_coeffs(phi_d, (3, -2)).values())


def test_twist_divisor_coeffs_are_minus_connecting_twist():
    rng = random.Random(97)
    for g, n in GN_SET:
        degrees = random_degrees(rng, g, n)
        phi = random_parameter(rng, g, n)
        coeffs = twist_divisor_coeffs(phi, degrees)
        transporter = connecting_twist(
            polytope_label(phi_from_degrees(g, n, degrees)), polytope_label(phi)
        )
        assert coeffs == {p: -t for p, t in transporter.items()}


@pytest.mark.parametrize("g, n", [(0, 5), (1, 4), (3, 3), (4, 5), (5, 7), (2, 8)])
def test_class_formulas_match_the_per_pair_reference(g, n):
    # every formula reads d_S from one subset-sum table; the reference sums each S on its own
    rng = random.Random(f"classes:{g}:{n}")
    vectors = [random_degrees(rng, g, n) for _ in range(40)]
    chosen = [d for d in vectors if any(x < 0 for x in d)][:3] + [d for d in vectors if min(d) >= 0][:1]
    assert len(chosen) >= 3
    for degrees in chosen:
        phi = random_parameter(rng, g, n)
        ref = reference_classes(phi, degrees)
        assert phi_from_degrees(g, n, degrees).values == ref["phi_d"]
        assert theta_pullback(phi, degrees).coeffs == ref["pullback"]
        assert stable_pairs_class(g, n, degrees).coeffs == ref["stable-pairs"]
        assert hain_class(g, n, degrees).coeffs == ref["hain"]
        assert twist_divisor_coeffs(phi, degrees) == ref["twist"]
        found = compare_classes(g, n, degrees)
        assert found.classes["stable-pairs"].coeffs == ref["stable-pairs"]
        assert found.classes["hain"].coeffs == ref["hain"]
        assert found.T == ref["T"]
        if ref["T"] is None:
            with pytest.raises(NoNegativeDegree):
                mueller_class(g, n, degrees)
            continue
        assert mueller_class(g, n, degrees).coeffs == ref["mueller"] == found.classes["mueller"].coeffs
        t_set, diff = mueller_comparison(g, n, degrees)
        assert t_set == ref["T"]
        assert diff.coeffs == ref["mueller_diff"] == found.diff.coeffs
