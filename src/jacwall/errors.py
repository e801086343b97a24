"""Exception taxonomy shared by all modules, and how its messages write a total or a value.

Every structured failure raises a subclass of JacwallError so that callers
(and the CLI exit-code mapping) can distinguish malformed input, degenerate
parameters, graph-shape violations, and formula precondition violations.
"""

from __future__ import annotations

import math
import sys


class JacwallError(Exception):
    """Base class for all errors raised by this package.

    ``exit_code`` is the command-line exit status of the error: 2 malformed
    input, 3 degenerate parameter, 4 graph shape violation, 5 formula
    precondition violation, and the generic failure status 1 otherwise.
    """

    exit_code = 1


class MalformedInput(JacwallError):
    """Unparseable or schema-violating external input (JSON, CLI flags)."""

    exit_code = 2


class InvalidGraph(JacwallError):
    """A marked graph violating connectedness, stability, or basic typing."""

    exit_code = 4


class InvalidGN(JacwallError):
    """A (genus, markings) pair outside the supported range."""

    exit_code = 2


class InvalidParameter(JacwallError):
    """A stability parameter or polytope label with the wrong coordinate domain."""

    exit_code = 2


class LoopEdge(JacwallError):
    """An operation that requires a non-loop edge was given a loop."""

    exit_code = 4


class NotTreeLike(JacwallError):
    """An operation restricted to loop-free circuit rank 0 was given a graph of positive rank."""

    exit_code = 4


class InadmissiblePair(JacwallError):
    """A pair (i, S) that does not index a boundary divisor for the given (g, n)."""

    exit_code = 5


class DegenerateParameter(JacwallError):
    """A stability parameter lying on a wall, where an off-wall one is required.

    Carries the first wall hit: ``pair`` is the boundary pair and ``d`` the
    integer with the offending coordinate equal to d + 1/2, so the two
    adjacent chambers have labels d and d + 1 at that pair.
    """

    exit_code = 3

    def __init__(self, message: str, pair=None, d=None):
        super().__init__(message)
        self.pair = pair
        self.d = d


class DegreeSumMismatch(JacwallError):
    """A degree vector whose total is not g - 1 (or of the wrong length)."""

    exit_code = 5


class NonAmple(JacwallError):
    """A polarization vector with a nonpositive entry."""

    exit_code = 5


class GraphMismatch(JacwallError):
    """Operands defined over different graphs, or over a graph with the wrong genus or markings."""

    exit_code = 4


class EmptySubset(JacwallError):
    """A vertex subset that must be nonempty was empty."""

    exit_code = 5


class EmptyOrFullSubset(JacwallError):
    """A vertex subset that must be proper and nonempty was empty or everything."""

    exit_code = 5


class NoNegativeDegree(JacwallError):
    """A degree vector without a negative entry, where one is required."""

    exit_code = 5


class BasisMismatch(JacwallError):
    """Divisor classes (or coefficient maps) over different (g, n), or a coefficient on a non-basis element."""

    exit_code = 5


def sum_text(total) -> str:
    """An int or Fraction total as str() writes it, or by its digit count when str() refuses it."""
    try:
        return str(total)
    except ValueError:  # a numerator or denominator over sys.get_int_max_str_digits()
        part = max(abs(total.numerator), total.denominator)
        digits = int(math.log10(part)) + 1
        digits += (part >= 10**digits) - (part < 10 ** (digits - 1))  # float log10 can be one off
        limit = sys.get_int_max_str_digits()
        return f"a number with {digits} digits, over Python's {limit}-digit limit for writing an integer"


def repr_text(value) -> str:
    """repr(value), or a note naming the limit when an integer in it is too long for repr() to write."""
    try:
        return repr(value)
    except ValueError:  # an int over sys.get_int_max_str_digits(), alone or inside value
        return f"a value over Python's {sys.get_int_max_str_digits()}-digit limit for writing an integer"


def sorted_text(values) -> str:
    """repr_text of the values in sorted order, sorted by their repr_text when they do not compare."""
    try:
        ordered = sorted(values)
    except TypeError:  # values such as 1 and "a", which do not compare
        ordered = sorted(values, key=repr_text)
    return repr_text(ordered)
