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
denominators of xi; its omega-coefficient is q_{L-1} and its norm is
N = (-1)^L.  b_1, ..., b_{L-1} is a palindrome, and so is the state
sequence, so `fundamental_unit` stops at its centre: at step j, with
the next state taken,

- P_{j+1} = P_j means L = 2j;
- Q_{j+1} = Q_j means L = 2j + 1;
- the first state again at j = 1 means L = 1.

The unit comes whole from that centre (Perron, Die Lehre von den
Kettenbruechen, 1913).  With p_k/q_k the convergents of xi and
Q_0 = g, set A_k = P_{k+1}*q_k + Q_{k+1}*q_{k-1}.  Then

    A_k = g*p_k - t*q_k,  A_k^2 - d*q_k^2 = (-1)^(k+1)*g*Q_{k+1}:

write q_k*xi - p_k = (-1)^k/(q_k*xi_{k+1} + q_{k-1}) as
(q_k*sqrt(d) - g*p_k + t*q_k)*(A_k + q_k*sqrt(d)) = (-1)^k*g*Q_{k+1};
its sqrt(d) part vanishes and its rational part is the norm.  So the
product xi_1*...*xi_{k+1} = (-1)^k/(q_k*xi - p_k) of the complete
quotients is (A_k + q_k*sqrt(d))/Q_{k+1}, and over the whole period it
is the unit: g*eps = A_{L-1} + q_{L-1}*sqrt(d).  The palindrome gives
xi_{L+1-i} = (P_i + sqrt(d))/Q_{i-1}, so the last j quotients
multiply to the first j times Q_j/g, and g*eps = alpha*beta/Q_j for
the two halves

- L = 2j:     alpha = beta = A_{j-1} + q_{j-1}*sqrt(d);
- L = 2j + 1: alpha = A_{j-1} + q_{j-1}*sqrt(d), beta = A_j + q_j*sqrt(d),
  as Q_{j+1} = Q_j;
- L = 1:      the odd case at j = 0, alpha = A_{-1} = g and
  beta = P_1 + sqrt(d), as Q_1 = Q_0 = g.

So eps = (r + c*sqrt(d))/g comes whole from the state and the
convergents the loop holds at the centre, and its only square root is
isqrt(d).

The check works on the halves, which have half the digits of the unit.
Write alpha = A + q*sqrt(d), beta = B + p*sqrt(d), Q = Q_j and

    alpha*beta = X + Y*sqrt(d),        X = A*B + d*q*p, Y = A*p + B*q,
    alpha*beta' = X' + Y'*sqrt(d),     X' = A*B - d*q*p, Y' = B*q - A*p,

where beta' is the conjugate.  The norm is multiplicative, so
X^2 - d*Y^2 = X'^2 - d*Y'^2 = N(alpha)*N(beta).  `_centre_product`
requires

1. Q | Y, and takes c = Y/Q;
2. X'^2 - d*Y'^2 = N*(g*Q)^2: for L = 2j, where Y' = 0, that is
   |A_{j-1}^2 - d*q_{j-1}^2| = g*Q_j; for L = 2j + 1 the two half norms
   multiply to -(g*Q_j)^2; for L = 1 it is P_1^2 - d = -g*Q_1;
3. r = floor(X/Q) >= 1.

Then X^2 = d*Y^2 + N*(g*Q)^2 = Q^2*(d*c^2 + g^2*N), so Q^2 divides
X^2, Q divides X, and r = X/Q solves r^2 = d*c^2 + g^2*N: the
returned pair satisfies the norm equation, with r >= 1.  So Q | X
needs no test of its own, and no product of unit size is formed:
the centre costs the four half-size products A*B, q*p, A*p and B*q
(three when L is even), while X' and Y' are of the size of g*sqrt(d).

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

A step does the state and the block and nothing else; the loop's
bound is counted at the folds, where it already works on big
integers.  A fold multiplies q_{j-1} by more than 2^60, so _FOLD_CAP
folds bound the unit: the loop raises SizeLimitError before q_{j-1}
passes 2^(60*_FOLD_CAP).  They bound the steps too: every b_j >= 1, so
the block's top-left entry grows at least as the Fibonacci numbers and
passes 2^60 within 88 steps of a fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .quadfield import FieldDesc, FieldElem, InvariantError, SizeLimitError
from .quadfield import _cross_pair, _omega

_FOLD = 1 << 60  # the block folds into the big pair past this (module docstring)
_FOLD_CAP = 30_000  # folds; q_{j-1} past 2^(60*30000) is a size limit (module docstring)


@dataclass(frozen=True, slots=True)
class FundamentalUnit:
    """Smallest unit > 1 of the ring of integers, with its norm sign."""

    value: FieldElem
    norm_sign: int


def _centre_product(
    d: int, g: int, Q: int, n: int, A: int, q: int, B: int, p: int
) -> tuple[int, int]:
    """(r, c) with r + c*sqrt(d) = (A + q*sqrt(d))*(B + p*sqrt(d))/Q, checked.

    The centre product of the module docstring, g*eps = r + c*sqrt(d)
    with n = (-1)^L; when L is even the halves are one pair, B = A and
    p = q.  Raises InvariantError unless Q divides A*p + B*q, the
    halves' norms multiply to n*(g*Q)^2 and r >= 1, which together give
    r^2 = d*c^2 + g^2*n (module docstring).
    """
    AB, dqp, Ap = A * B, d * (q * p), A * p
    Bq = Ap if n > 0 else B * q
    c, rest = divmod(Ap + Bq, Q)
    r = (AB + dqp) // Q
    if rest or (AB - dqp) ** 2 - d * (Bq - Ap) ** 2 != n * (g * Q) ** 2 or r < 1:
        # the halves may have thousands of digits, too many for str(); leave them out
        raise InvariantError(f"centre of the period of d={d} gives no unit")
    return r, c


def _centre_unit(d: int, P: int, Q: int) -> tuple[int, int, int]:
    """(r, c, (-1)^L) with Q_0*eps = r + c*sqrt(d), from half the period
    of the reduced surd (P + sqrt(d))/Q, where Q_0 = (d - P^2)/Q.

    The package's one period loop.  (q1, q2) is (q_{j-1}, q_{j-2}) at the
    last fold, and the block ((x0, y0), (x1, y1)) the quotient matrices
    since then, so that q_{j-1} = x0*q1 + y0*q2 and q_{j-2} = x1*q1 + y1*q2.
    A step touches only the state and the block; a fold, the loop's one
    piece of work on big integers, also counts down the _FOLD_CAP that
    bounds the loop.
    The palindrome puts the centre before the first state comes back, so
    the loop does not test for the period closing.  At the centre,
    A = A_{j-1} and _centre_product multiplies the halves.
    """
    s = isqrt(d)
    g = Q_prev = (d - P * P) // Q
    fold, folds = _FOLD, _FOLD_CAP
    q1, q2 = 1, 0
    x0, y0, x1, y1 = 1, 0, 0, 1
    while True:
        a = (P + s) // Q
        P_next = a * Q - P
        Q_next = Q_prev + a * (P - P_next)
        if P_next == P or Q_next == Q:
            break
        x0, x1 = a * x0 + x1, x0
        y0, y1 = a * y0 + y1, y0
        if x0 > fold:
            if not folds:
                raise SizeLimitError(f"no centre of the period of d={d} within {_FOLD_CAP} folds")
            folds -= 1
            q1, q2 = x0 * q1 + y0 * q2, x1 * q1 + y1 * q2
            x0, y0, x1, y1 = 1, 0, 0, 1
        Q_prev, P, Q = Q, P_next, Q_next
    q1, q2 = x0 * q1 + y0 * q2, x1 * q1 + y1 * q2
    A = P * q1 + Q * q2
    if P_next != P:  # L = 2j + 1, and Q_{j+1} = Q_j
        q = a * q1 + q2
        n, B, p = -1, P_next * q + Q * q1, q
    elif Q_next == Q:  # the first state again: L = 1, and Q_1 = Q_0 = g
        n, A, q1, B, p = -1, g, 0, P, 1
    else:  # L = 2j
        n, B, p = 1, A, q1
    r, c = _centre_product(d, g, Q, n, A, q1, B, p)
    return r, c, n


def fundamental_unit(field: FieldDesc) -> FundamentalUnit:
    """Smallest unit > 1 of the ring of integers of Q(sqrt(d)).

    Computed afresh on every call from half a period of the expansion
    of omega, in memory that grows only with the size of the unit: the
    loop gives eps = (r + c*sqrt(d))/g whole, and checks it on the
    half-size numbers of the centre (module docstring).
    """
    d = field.d
    # omega = (t + sqrt(d))/g, so xi_1 = (P + sqrt(d))/((d - P^2)/g)
    g, t, _ = _omega(d)
    a0 = (t + isqrt(d)) // g
    P = g * a0 - t
    r, c, n = _centre_unit(d, P, (d - P * P) // g)
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
