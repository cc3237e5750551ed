"""Continued fractions of quadratic surds and fundamental units.

The ring of integers is Z[xi] with xi = omega = (t + sqrt(d))/g, as
quadfield._omega gives it.  Its complete quotient
xi_1 = 1/(xi - a0) is reduced (xi_1 > 1 and -1 < xi_1' < 0), so by
Galois's theorem its expansion [b_1, ..., b_L] is purely periodic.
Writing xi_j = (P_j + sqrt(d))/Q_j, the exact integer recurrence

    b_j = floor((P_j + isqrt(d))/Q_j),  P_{j+1} = b_j*Q_j - P_j,
    Q_{j+1} = Q_{j-1} + b_j*(P_j - P_{j+1})

carries the period.  The last line is Q_{j+1} = (d - P_{j+1}^2)/Q_j
without the division: subtract Q_j*Q_{j-1} = d - P_j^2 and use
P_j + P_{j+1} = b_j*Q_j.  It is seeded with Q_0 = (d - P_1^2)/Q_1.

The fundamental unit of Z[xi] is q_{L-1}*xi + q_L - a0*q_{L-1}, where
q_{-1} = 0, q_0 = 1, q_j = b_j*q_{j-1} + q_{j-2} are the convergent
denominators of xi; its omega-coefficient is c = q_{L-1}.
b_1, ..., b_{L-1} is a palindrome, and so is the state sequence, so
`fundamental_unit` stops at its centre: at step j, with the next state
taken,

- P_{j+1} = P_j means L = 2j; then c = q_{j-1}*(q_j + q_{j-2}), N = +1;
- Q_{j+1} = Q_j means L = 2j + 1; then c = q_j^2 + q_{j-1}^2, N = -1;
- the first state again at j = 1 means L = 1, c = 1, N = -1.

Both values of c are the continuant identity
K(b_1..b_n) = K(b_1..b_j)*K(b_{j+1}..b_n) + K(b_1..b_{j-1})*K(b_{j+2}..b_n)
split at the centre, with the reversed halves equal.  The unit's norm
is N = (-1)^L.

The rational part comes from the same centre (Perron, Die Lehre von
den Kettenbruechen, 1913).  With p_k/q_k the convergents of xi and
Q_0 = g, set A_k = P_{k+1}*q_k + Q_{k+1}*q_{k-1}.  Then

    A_k = g*p_k - t*q_k,  A_k^2 - d*q_k^2 = (-1)^(k+1)*g*Q_{k+1}:

write q_k*xi - p_k = (-1)^k/(q_k*xi_{k+1} + q_{k-1}) as
(q_k*sqrt(d) - g*p_k + t*q_k)*(A_k + q_k*sqrt(d)) = (-1)^k*g*Q_{k+1};
its sqrt(d) part vanishes and its rational part is the norm.  So the
product xi_1*...*xi_{k+1} = (-1)^k/(q_k*xi - p_k) of the complete
quotients is (A_k + q_k*sqrt(d))/Q_{k+1}, and over the whole period it
is the unit: g*eps = A_{L-1} + q_{L-1}*sqrt(d).  The palindrome gives
xi_{L+1-i} = (P_i + sqrt(d))/Q_{i-1}, so the last j quotients
multiply to the first j times Q_j/g, and

- L = 2j:     g*eps = (A_{j-1} + q_{j-1}*sqrt(d))^2/Q_j;
- L = 2j + 1: g*eps = (A_{j-1} + q_{j-1}*sqrt(d))*(A_j + q_j*sqrt(d))/Q_j,
  as Q_{j+1} = Q_j;
- L = 1:      g*eps = P_1 + sqrt(d), as Q_1 = g.

The loop takes r = (A_{j-1}^2 + d*q_{j-1}^2)/Q_j, or
(A_{j-1}*A_j + d*q_{j-1}*q_j)/Q_j, or P_1, from the state and the
convergents it holds at the centre, so eps = (r + c*sqrt(d))/g comes
whole from half the period, and its only square root is isqrt(d).  The
norm equation r^2 = d*c^2 + g^2*N is the check: for the loop's c it
has one positive solution r.

The q_j grow to the size of the unit, thousands of digits at
d = 10^8, while the b_j are small.  So the loop does not add a
quotient into the big pair (q_{j-1}, q_{j-2}) at each step.  It keeps
the product of the quotient matrices ((b, 1), (1, 0)) since the last
fold as a 2x2 block of machine-size integers, and folds the block
into the big pair once its top-left entry, the largest, passes 2^60.
Below that bound every entry fits in two of CPython's 30-bit digits,
so a step costs a few small multiplications, and the big integers
are touched about once every 35 steps instead of at every step: q_j
gains about 1.7 bits a step, as measured over the 400 squarefree d
from 10^8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .quadfield import FieldDesc, FieldElem, InvariantError, SizeLimitError
from .quadfield import _cross_pair, _omega

_STEP_CAP = 10**6
_FOLD = 1 << 60  # the block folds into the big pair past this (module docstring)


@dataclass(frozen=True, slots=True)
class FundamentalUnit:
    """Smallest unit > 1 of the ring of integers, with its norm sign."""

    value: FieldElem
    norm_sign: int


def _centre_unit(d: int, P: int, Q: int) -> tuple[int, int, int]:
    """(r, c, (-1)^L) with Q_0*eps = r + c*sqrt(d), from half the period
    of the reduced surd (P + sqrt(d))/Q, where Q_0 = (d - P^2)/Q.

    The package's one period loop.  (q1, q2) is (q_{j-1}, q_{j-2}) at the
    last fold, and the block ((x0, y0), (x1, y1)) the quotient matrices
    since then, so that q_{j-1} = x0*q1 + y0*q2 and q_{j-2} = x1*q1 + y1*q2.
    At the centre, A = A_{j-1} and the centre products of the module
    docstring give r; c is the continuant split at the centre.  The
    palindrome puts the centre before the first state comes back, so
    the loop does not test for the period closing; _STEP_CAP bounds it.
    """
    s = isqrt(d)
    Q_prev = (d - P * P) // Q
    q1, q2 = 1, 0
    x0, y0, x1, y1 = 1, 0, 0, 1
    for _ in range(_STEP_CAP):
        a = (P + s) // Q
        P_next = a * Q - P
        Q_next = Q_prev + a * (P - P_next)
        if P_next == P or Q_next == Q:
            q1, q2 = x0 * q1 + y0 * q2, x1 * q1 + y1 * q2
            A = P * q1 + Q * q2
            if P_next != P:  # L = 2j + 1, and Q_{j+1} = Q_j
                q = a * q1 + q2
                return (A * (P_next * q + Q * q1) + d * q1 * q) // Q, q * q + q1 * q1, -1
            if Q_next == Q:  # the first state again: L = 1
                return P, 1, -1
            # L = 2j; q_j + q_{j-2} = a*q_{j-1} + 2*q_{j-2}
            return (A * A + d * q1 * q1) // Q, q1 * (a * q1 + 2 * q2), 1
        x0, x1 = a * x0 + x1, x0
        y0, y1 = a * y0 + y1, y0
        if x0 > _FOLD:
            q1, q2 = x0 * q1 + y0 * q2, x1 * q1 + y1 * q2
            x0, y0, x1, y1 = 1, 0, 0, 1
        Q_prev, P, Q = Q, P_next, Q_next
    raise SizeLimitError(f"no period within {_STEP_CAP} steps for d={d}")


def fundamental_unit(field: FieldDesc) -> FundamentalUnit:
    """Smallest unit > 1 of the ring of integers of Q(sqrt(d)).

    Computed afresh on every call from half a period of the expansion
    of omega, in memory that grows only with the size of the unit: the
    loop gives eps = (r + c*sqrt(d))/g whole, and the norm equation
    r^2 = d*c^2 + g^2*N only checks it.
    """
    d = field.d
    # omega = (t + sqrt(d))/g, so xi_1 = (P + sqrt(d))/((d - P^2)/g)
    g, t, _ = _omega(d)
    a0 = (t + isqrt(d)) // g
    P = g * a0 - t
    r, c, n = _centre_unit(d, P, (d - P * P) // g)
    if r < 1 or r * r != d * c * c + g * g * n:
        # c may have thousands of digits, too many for str(); leave it out
        raise InvariantError(f"centre of the period of d={d} solves no norm equation")
    return FundamentalUnit(FieldElem(field, Fraction(r, g), Fraction(c, g)), n)


def unit_square(unit: FundamentalUnit) -> FieldElem:
    """The totally positive generator eps^2 of the group acting on forms.

    eps = (p + q*sqrt(d))/s for its cross-multiplied pair (p, q) and
    s = den(a)*den(b), so eps^2 = (p^2 + d*q^2 + 2*p*q*sqrt(d))/s^2.
    """
    eps = unit.value
    d, s2 = eps.field.d, (eps.a.denominator * eps.b.denominator) ** 2
    p, q = _cross_pair(eps)
    return FieldElem(eps.field, Fraction(p * p + d * q * q, s2), Fraction(2 * p * q, s2))
