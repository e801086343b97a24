"""Divisor classes on the moduli of curves in the basis lambda, psi_j, delta_irr, delta_(i,S).

Implements the theta-divisor pullback for an arbitrary off-wall stability
parameter, the wall-crossing difference, and the Hain, Mueller, and
stable-pairs comparison classes, together with the boundary-twist
coefficients.  Comparisons are formal coefficientwise equalities: the basis
is treated as free for every (g, n).

The binomial coefficient C(m, 2) = m(m-1)/2 is taken over all integers,
negative included; this convention is what makes the pullback formula
telescope against the wall-crossing steps.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import BasisMismatch, NoNegativeDegree, repr_text
from .graphs import BoundaryPair, _as_mapping, _Value, admissible_pairs, check_gn, pair_index, side_sums
from .stability import StabilityParameter, _as_fraction, phi_from_degrees, polytope_label, side_degrees


def binom2(m: int) -> int:
    """m(m-1)/2 for any integer m (an integer even when m is negative)."""
    return m * (m - 1) // 2


@lru_cache(typed=True)
def basis_labels(g: int, n: int) -> tuple[str, ...]:
    """Term names of the basis in coefficient order: lambda, psi_j, delta_irr, delta_(i,S)."""
    return (
        "lambda",
        *(f"psi_{j}" for j in range(1, n + 1)),
        "delta_irr",
        *(f"delta_{pair}" for pair in admissible_pairs(g, n)),
    )


class DivisorClass(_Value):
    """A rational coefficient vector over {lambda, psi_1..psi_n, delta_irr, delta_(i,S)}.

    ``coeffs`` holds every coefficient, zeros included, in ``basis_labels(g, n)``
    order, so equality is coefficientwise; each is given as an int or a Fraction.
    Instances are immutable and hash by value; arithmetic returns new values.
    """

    def __init__(
        self,
        g: int,
        n: int,
        lam=0,
        psi: Mapping[int, Fraction] | None = None,
        delta_irr=0,
        delta: Mapping[BoundaryPair, Fraction] | None = None,
    ):
        check_gn(g, n)
        index = pair_index(g, n)
        coeffs = [Fraction(0)] * (n + 2 + len(admissible_pairs(g, n)))
        coeffs[0] = _as_fraction(lam)
        for j, c in _as_mapping({} if psi is None else psi, "psi").items():
            if type(j) is not int or not 1 <= j <= n:
                raise BasisMismatch(f"psi index must lie in 1..{n}, got {repr_text(j)}")
            coeffs[j] = _as_fraction(c)
        coeffs[n + 1] = _as_fraction(delta_irr)
        for pair, c in _as_mapping({} if delta is None else delta, "delta").items():
            k = index.get(pair)
            if k is None:
                raise BasisMismatch(f"delta index {pair} is not admissible for (g,n)=({g},{n})")
            coeffs[n + 2 + k] = _as_fraction(c)
        self.g = g
        self.n = n
        self.coeffs = tuple(coeffs)

    @property
    def lam(self) -> Fraction:
        return self.coeffs[0]

    @property
    def delta_irr(self) -> Fraction:
        return self.coeffs[self.n + 1]

    @property
    def psi(self) -> Mapping[int, Fraction]:
        """The nonzero psi coefficients."""
        return MappingProxyType({j: c for j, c in enumerate(self.coeffs[1 : self.n + 1], 1) if c})

    @property
    def delta(self) -> Mapping[BoundaryPair, Fraction]:
        """The nonzero delta_(i,S) coefficients, in canonical pair order."""
        pairs = admissible_pairs(self.g, self.n)
        return MappingProxyType({p: c for p, c in zip(pairs, self.coeffs[self.n + 2 :]) if c})

    def _key(self):
        return (self.g, self.n, self.coeffs)

    def _check_same_space(self, other: "DivisorClass") -> None:
        if (self.g, self.n) != (other.g, other.n):
            raise BasisMismatch(
                f"classes live over different spaces:"
                f" (g,n)=({self.g},{self.n}) vs ({other.g},{other.n})"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        self._check_same_space(other)
        return DivisorClass._of(g=self.g, n=self.n, coeffs=tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        self._check_same_space(other)
        return DivisorClass._of(g=self.g, n=self.n, coeffs=tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return -1 * self

    def __rmul__(self, c) -> "DivisorClass":
        c = _as_fraction(c)
        return DivisorClass._of(g=self.g, n=self.n, coeffs=tuple(c * v for v in self.coeffs))

    def __repr__(self) -> str:
        terms = [
            f"{c}*{label}" for label, c in zip(basis_labels(self.g, self.n), self.coeffs) if c
        ]
        return "DivisorClass({})".format(" + ".join(terms) if terms else "0")


# -- the five class formulas ---------------------------------------------------


def _theta_form(g: int, n: int, degrees: Sequence[int], delta) -> DivisorClass:
    """-lambda + sum_j C(d_j+1, 2) psi_j + the delta_(i,S) coefficients, given in pair order."""
    psi = (Fraction(binom2(d + 1)) for d in degrees)
    return DivisorClass._of(g=g, n=n, coeffs=(Fraction(-1), *psi, Fraction(0), *map(Fraction, delta)))


def theta_pullback(phi: StabilityParameter, degrees: Sequence[int]) -> DivisorClass:
    """Pullback of the theta class along the section twisting by the degree vector.

    -lambda + sum_j C(d_j+1, 2) psi_j
    + sum_(i,S) [C(d(i,S)-i+1, 2) - C(d_S-i+1, 2)] delta_(i,S),
    where d(i,S) is the polytope label of phi.
    """
    degrees, d_side = side_degrees(phi.g, phi.n, degrees)
    label = polytope_label(phi)
    delta = (
        binom2(d - pair.i + 1) - binom2(d_s - pair.i + 1)
        for pair, d, d_s in zip(label.pairs, label.values, d_side)
    )
    return _theta_form(phi.g, phi.n, degrees, delta)


def wall_crossing(phi1: StabilityParameter, phi2: StabilityParameter) -> DivisorClass:
    """Difference of theta classes between two off-wall parameters.

    Computed in closed form, sum of [C(d2-i+1, 2) - C(d1-i+1, 2)] delta_(i,S)
    over the labels of the two parameters.  This equals the composition of the
    unit wall crossings between them (telescoping in d).
    """
    if (phi1.g, phi1.n) != (phi2.g, phi2.n):
        raise BasisMismatch(
            f"parameters live over different spaces: ({phi1.g},{phi1.n}) vs ({phi2.g},{phi2.n})"
        )
    label1 = polytope_label(phi1)
    label2 = polytope_label(phi2)
    delta = (
        Fraction(binom2(d2 - pair.i + 1) - binom2(d1 - pair.i + 1))
        for pair, d1, d2 in zip(label1.pairs, label1.values, label2.values)
    )
    return DivisorClass._of(g=phi1.g, n=phi1.n, coeffs=(Fraction(0),) * (phi1.n + 2) + tuple(delta))


def stable_pairs_class(g: int, n: int, degrees: Sequence[int]) -> DivisorClass:
    """Pullback of the theta divisor of the family of stable semiabelic pairs.

    -lambda + sum_j C(d_j+1, 2) psi_j - sum_(i,S) C(d_S-i+1, 2) delta_(i,S);
    equals the theta pullback for every parameter whose polytope touches the
    canonical one.
    """
    degrees, d_side = side_degrees(g, n, degrees)
    delta = (-binom2(d_s - pair.i + 1) for pair, d_s in zip(admissible_pairs(g, n), d_side))
    return _theta_form(g, n, degrees, delta)


def hain_class(g: int, n: int, degrees: Sequence[int]) -> DivisorClass:
    """The theta-function extension: the stable-pairs class plus delta_irr/8."""
    return stable_pairs_class(g, n, degrees) + DivisorClass(g, n, delta_irr=Fraction(1, 8))


def _mueller_sides(g: int, n: int, degrees: Sequence[int]):
    """The checked degrees, one of them negative, and (pair, d_S, every degree on S > 0) in pair order."""
    degrees, d_side = side_degrees(g, n, degrees)
    if not any(d < 0 for d in degrees):
        raise NoNegativeDegree(f"at least one degree must be negative, got {degrees}")
    nonpositive = side_sums(g, n, [int(d <= 0) for d in degrees])
    return degrees, zip(admissible_pairs(g, n), d_side, [count == 0 for count in nonpositive])


def mueller_class(g: int, n: int, degrees: Sequence[int]) -> DivisorClass:
    """The Zariski-closure extension, defined when some degree is negative.

    Pairs whose markings all carry positive degree contribute
    -C(|d_S-i|+1, 2); all others contribute -C(d_S-i+1, 2).
    """
    degrees, sides = _mueller_sides(g, n, degrees)
    delta = (
        -binom2(abs(d_s - pair.i) + 1) if positive else -binom2(d_s - pair.i + 1)
        for pair, d_s, positive in sides
    )
    return _theta_form(g, n, degrees, delta)


def mueller_comparison(
    g: int, n: int, degrees: Sequence[int]
) -> tuple[list[BoundaryPair], DivisorClass]:
    """The pairs where the Mueller and stable-pairs classes disagree, and their difference.

    T collects the admissible (i, S) with every degree on S positive and
    d_S < i; the difference class sum_(T) (i - d_S) delta_(i,S) satisfies
    stable_pairs = mueller + diff.
    """
    t_set = []
    delta = {}
    for pair, d_s, positive in _mueller_sides(g, n, degrees)[1]:
        if positive and d_s < pair.i:
            t_set.append(pair)
            delta[pair] = pair.i - d_s
    return t_set, DivisorClass(g, n, delta=delta)


def twist_divisor_coeffs(
    phi: StabilityParameter, degrees: Sequence[int]
) -> dict[BoundaryPair, int]:
    """Coefficients of the S-side boundary components in the twisted marking divisor.

    (i, S) maps to d_S - d(i, S); the result is identically zero exactly when
    phi lies in the polytope of the degree vector's own parameter.
    """
    d_side = side_degrees(phi.g, phi.n, degrees)[1]
    label = polytope_label(phi)
    return {pair: d_s - d for pair, d, d_s in zip(label.pairs, label.values, d_side)}


# -- the identities among the comparison classes ----------------------------------


class ClassComparison(namedtuple("ClassComparison", "classes T diff identities")):
    """What `jacwall compare` reports: the classes in column order, T, diff and the identities."""

    __slots__ = ()


def compare_classes(g: int, n: int, degrees: Sequence[int]) -> ClassComparison:
    """The comparison of a degree vector; without a negative degree no "mueller", T or diff."""
    pullback_d = theta_pullback(phi_from_degrees(g, n, degrees), degrees)
    pairs_class = stable_pairs_class(g, n, degrees)
    eighth_irr = DivisorClass(g, n, delta_irr=Fraction(1, 8))
    hain = pairs_class + eighth_irr  # hain_class, without computing stable_pairs_class again
    flat_phi = StabilityParameter._of(g=g, n=n, values=tuple(Fraction(p.i) for p in admissible_pairs(g, n)))
    flat_pullback = theta_pullback(flat_phi, degrees)
    classes = {"pullback(phi_d)": pullback_d, "stable-pairs": pairs_class, "hain": hain}
    identities = [
        (
            "pullback(phi_dvec) has no boundary terms",
            pullback_d.delta_irr == 0 and not pullback_d.delta,
        ),
        ("pullback(flat phi) = stable-pairs", flat_pullback == pairs_class),
        ("hain = stable-pairs + delta_irr/8", hain - pairs_class == eighth_irr),
    ]
    t_set = diff = None
    if any(d < 0 for d in degrees):
        classes["mueller"] = mueller = mueller_class(g, n, degrees)
        t_set, diff = mueller_comparison(g, n, degrees)
        identities.append(("mueller + diff = stable-pairs", mueller + diff == pairs_class))
    return ClassComparison(classes, t_set, diff, identities)
