"""Continued fractions of quadratic surds and fundamental units.

For xi = sqrt(d) or (1 + sqrt(d))/2, the complete quotient
xi_1 = 1/(xi - a0) is reduced (xi_1 > 1 and -1 < xi_1' < 0), so by
Galois's theorem its expansion is purely periodic.  Writing
xi_1 = (P + sqrt(d))/Q, one period runs the exact integer recurrence
P' = a*Q - P, Q' = (d - P'^2)/Q until (P, Q) returns.  With q_k the
convergent denominators of xi, the matrix fixing xi has bottom row
(q_{L-1}, q_L - a0*q_{L-1}), so q_{L-1}*xi + q_L - a0*q_{L-1} is the
fundamental unit of Z[xi].  One state and two denominators are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator

from .quadfield import FieldDesc, FieldElem, QuadFieldError

_STEP_CAP = 10**6


class PeriodError(RuntimeError):
    """Continued-fraction step cap exceeded."""


class SearchExhaustedError(RuntimeError):
    """Exhaustive unit search hit its bound without a solution."""


@dataclass(frozen=True, slots=True)
class CFExpansion:
    """sqrt(d) = [a0; period repeated], exact."""

    d: int
    a0: int
    period: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class FundamentalUnit:
    """Smallest unit > 1 of the ring of integers, with its norm sign."""

    value: FieldElem
    norm_sign: int


def _period(d: int, P: int, Q: int) -> Iterator[int]:
    """Partial quotients of one period of the reduced surd (P + sqrt(d))/Q.

    Q must be positive and divide d - P^2; both stay so along the period.
    """
    s = isqrt(d)
    first = (P, Q)
    for _ in range(_STEP_CAP):
        a = (P + s) // Q
        yield a
        P = a * Q - P
        Q = (d - P * P) // Q
        if (P, Q) == first:
            return
    raise PeriodError(f"no period within {_STEP_CAP} steps for d={d}")


def cf_sqrt(d: int) -> CFExpansion:
    """Continued fraction of sqrt(d); the period closes with 2*a0."""
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise QuadFieldError(f"{d} is a perfect square")
    period = tuple(_period(d, a0, d - a0 * a0))
    if period[-1] != 2 * a0:
        raise PeriodError(f"period of sqrt({d}) did not close on 2*a0")
    return CFExpansion(d, a0, period)


def fundamental_unit(field: FieldDesc) -> FundamentalUnit:
    """Smallest unit > 1 of the ring of integers of Q(sqrt(d)).

    Computed afresh on every call from one period of the expansion of
    omega, in memory that grows only with the size of the unit.
    """
    d = field.d
    s = isqrt(d)
    if field.half_basis:
        # omega = (1 + sqrt(d))/2, so xi_1 = (P + sqrt(d))/((d - P^2)/2)
        a0 = (1 + s) // 2
        P = 2 * a0 - 1
        Q = (d - P * P) // 2
    else:
        a0, P, Q = s, s, d - s * s
    q_prev, q = 0, 1
    for a in _period(d, P, Q):
        q_prev, q = q, a * q + q_prev
    c, d_entry = q_prev, q - a0 * q_prev
    # c*omega + d_entry = q_L + q_{L-1}/xi_1 > 1: no sign or inverse to pick
    if field.half_basis:
        value = FieldElem(field, d_entry + Fraction(c, 2), Fraction(c, 2))
    else:
        value = FieldElem(field, Fraction(d_entry), Fraction(c))
    n = value.norm()
    if n not in (1, -1):
        raise PeriodError(f"period of d={d} produced norm {n}, expected a unit")
    return FundamentalUnit(value, int(n))


def unit_square(unit: FundamentalUnit) -> FieldElem:
    """The totally positive generator eps^2 of the group acting on forms."""
    return unit.value * unit.value


def unit_brute_oracle(field: FieldDesc, bound: int) -> FundamentalUnit:
    """Exhaustive smallest-unit search, independent of continued fractions.

    Scans the sqrt(d) coordinate lattice upward: candidates are
    x + y*sqrt(d) for d = 2, 3 (mod 4) and (x + y*sqrt(d))/2 with
    x = y (mod 2) otherwise, taking the first y >= 1 (then the smaller x)
    that solves the norm equation.  The caller must pick a bound large
    enough that a solution exists.
    """
    if bound < 1:
        raise QuadFieldError(f"bound must be >= 1, got {bound}")
    d = field.d
    if field.half_basis:
        for y in range(1, bound + 1):
            t = d * y * y
            for shift, sign in ((-4, -1), (4, 1)):
                x2 = t + shift
                if x2 <= 0:
                    continue
                x = isqrt(x2)
                if x * x == x2 and (x - y) % 2 == 0:
                    value = FieldElem(field, Fraction(x, 2), Fraction(y, 2))
                    return FundamentalUnit(value, sign)
    else:
        for y in range(1, bound + 1):
            t = d * y * y
            for shift, sign in ((-1, -1), (1, 1)):
                x2 = t + shift
                x = isqrt(x2)
                if x * x == x2:
                    value = FieldElem(field, Fraction(x), Fraction(y))
                    return FundamentalUnit(value, sign)
    raise SearchExhaustedError(f"no unit for d={d} within bound {bound}")
