"""Continued fractions of quadratic surds and fundamental units.

For xi = sqrt(d) or (1 + sqrt(d))/2, the complete quotient
xi_1 = 1/(xi - a0) is reduced (xi_1 > 1 and -1 < xi_1' < 0), so by
Galois's theorem its expansion [b_1, ..., b_L] is purely periodic.
Writing xi_j = (P_j + sqrt(d))/Q_j, one exact integer recurrence
P_{j+1} = b_j*Q_j - P_j, Q_{j+1} = (d - P_{j+1}^2)/Q_j carries the
period; `_period` runs it until (P, Q) returns.

The fundamental unit of Z[xi] is q_{L-1}*xi + q_L - a0*q_{L-1}, where
q_{-1} = 0, q_0 = 1, q_j = b_j*q_{j-1} + q_{j-2} are the convergent
denominators of xi.  Only its omega-coefficient c = q_{L-1} needs the
continued fraction.  b_1, ..., b_{L-1} is a palindrome, and so is the
state sequence, so `fundamental_unit` stops at its centre: at step j,
with the next state taken,

- P_{j+1} = P_j means L = 2j; then c = q_{j-1}*(q_j + q_{j-2}), N = +1;
- Q_{j+1} = Q_j means L = 2j + 1; then c = q_j^2 + q_{j-1}^2, N = -1;
- the first state again at j = 1 means L = 1, c = 1, N = -1.

Both values of c are the continuant identity
K(b_1..b_n) = K(b_1..b_j)*K(b_{j+1}..b_n) + K(b_1..b_{j-1})*K(b_{j+2}..b_n)
split at the centre, with the reversed halves equal.  The unit's norm
is N = (-1)^L, and its rational part is one exact square root of the
norm equation: eps = r + c*sqrt(d) with r^2 = d*c^2 + N, or
eps = (r + c*sqrt(d))/2 with r^2 = d*c^2 + 4N when d = 1 (mod 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterator

from .quadfield import FieldDesc, FieldElem, InvariantError, SizeLimitError

_STEP_CAP = 10**6


@dataclass(frozen=True, slots=True)
class FundamentalUnit:
    """Smallest unit > 1 of the ring of integers, with its norm sign."""

    value: FieldElem
    norm_sign: int


def _period(d: int, P: int, Q: int) -> Iterator[tuple[int, int, int]]:
    """(b_j, P_{j+1}, Q_{j+1}) along one period of the reduced surd (P + sqrt(d))/Q.

    Q must be positive and divide d - P^2; both stay so along the period.
    The caller may stop early; _STEP_CAP bounds the steps actually taken.
    """
    s = isqrt(d)
    P1, Q1 = P, Q
    for _ in range(_STEP_CAP):
        a = (P + s) // Q
        P = a * Q - P
        Q = (d - P * P) // Q
        yield a, P, Q
        if P == P1 and Q == Q1:
            return
    raise SizeLimitError(f"no period within {_STEP_CAP} steps for d={d}")


def _centre_coefficient(d: int, P: int, Q: int) -> tuple[int, int]:
    """(q_{L-1}, (-1)^L) for the reduced surd (P + sqrt(d))/Q, from half its period."""
    q2, q1 = 0, 1  # q_{j-2}, q_{j-1}
    for a, P_next, Q_next in _period(d, P, Q):
        q = a * q1 + q2
        if P_next == P:
            if Q_next == Q:  # the first state again: L = 1
                return 1, -1
            return q1 * (q + q2), 1
        if Q_next == Q:
            return q * q + q1 * q1, -1
        P, Q = P_next, Q_next
        q2, q1 = q1, q
    raise InvariantError(f"period of d={d} closed without a centre")


def fundamental_unit(field: FieldDesc) -> FundamentalUnit:
    """Smallest unit > 1 of the ring of integers of Q(sqrt(d)).

    Computed afresh on every call from half a period of the expansion
    of omega, in memory that grows only with the size of the unit.
    """
    d = field.d
    s = isqrt(d)
    if field.half_basis:
        # omega = (1 + sqrt(d))/2, so xi_1 = (P + sqrt(d))/((d - P^2)/2)
        P = 2 * ((1 + s) // 2) - 1
        c, n = _centre_coefficient(d, P, (d - P * P) // 2)
        r2 = d * c * c + 4 * n
    else:
        c, n = _centre_coefficient(d, s, d - s * s)
        r2 = d * c * c + n
    r = isqrt(r2)
    if r * r != r2:
        # c may have thousands of digits, too many for str(); leave it out
        raise InvariantError(f"centre of the period of d={d} solves no norm equation")
    if field.half_basis:
        value = FieldElem(field, Fraction(r, 2), Fraction(c, 2))
    else:
        value = FieldElem(field, Fraction(r), Fraction(c))
    return FundamentalUnit(value, n)


def unit_square(unit: FundamentalUnit) -> FieldElem:
    """The totally positive generator eps^2 of the group acting on forms."""
    return unit.value * unit.value
