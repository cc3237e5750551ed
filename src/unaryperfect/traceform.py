"""Trace forms attached to field elements, with exact Gauss reduction.

A totally positive x in Q(sqrt(d)) defines the positive definite binary
quadratic form y -> Tr(x * y^2) on the ring of integers, written over the
basis {1, omega}.  Everything runs on integer forms: x = a + b*sqrt(d) is
scaled to p + q*sqrt(d), the primitive label of its ray, whose trace form
has integer coefficients and is p/a times the form of x.  That form is
reduced by Gauss's algorithm with an exact round-to-nearest step, the
minimum plus all minimal vectors are read off the reduced form, and the
minimum is divided by p/a again.  Scaling changes neither the reduction
steps nor the minimal vectors.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .quadfield import FieldDesc, FieldElem, InvariantError, SizeLimitError
from .quadfield import _omega, primitive_normalize

_REDUCE_CAP = 10**6
_BOX_CAP = 10**7


# -- integer kernel ------------------------------------------------------
#
# The walk evaluates thousands of forms per field, so the inner loop runs
# on plain ints.  Rational elements are scaled through _scaled_form.


def _trace_form_ints(d: int, p: int, q: int) -> tuple[int, int, int]:
    """(Tr(x), 2*Tr(x*omega), Tr(x*omega^2)) for the integer element x = p + q*sqrt(d)."""
    g, t, n = _omega(d)
    h = 2 * (t * p + d * q) // g  # Tr(x*omega); omega^2 = t*omega + n gives the last entry
    return 2 * p, 2 * h, t * h + 2 * n * p


def _round_nearest_even(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0), ties to even."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return q


def _in_basis(
    form: tuple[int, int, int], basis: tuple[int, int, int, int]
) -> tuple[int, int, int]:
    """The form (A, B, C) written over basis: (m00, m01, m10, m11), columns in its coordinates."""
    (A, B, C), (u00, u01, u10, u11) = form, basis
    return (
        A * u00 * u00 + B * u00 * u10 + C * u10 * u10,
        2 * A * u00 * u01 + B * (u00 * u11 + u01 * u10) + 2 * C * u10 * u11,
        A * u01 * u01 + B * u01 * u11 + C * u11 * u11,
    )


def _reduce_ints(
    A: int, B: int, C: int, start: tuple[int, int, int, int] = (1, 0, 0, 1)
) -> tuple[tuple[int, int, int], tuple[int, int, int, int]]:
    """Gauss-reduce a positive definite integer form, written over the basis `start`.

    start is unimodular, (m00, m01, m10, m11) with columns in the form's
    coordinates, and so is the returned reduced basis.  Any such start
    spans the same lattice, so the minimum and minimal vectors do not
    depend on it, and one near the reduced basis of a nearby form cuts
    the Gauss steps from about its bit length to a handful.  A is cut at
    least in half at every swap, so termination is immediate; the cap
    only guards against a malformed input slipping past validation.
    """
    u00, u01, u10, u11 = start
    A, B, C = _in_basis((A, B, C), start)
    for _ in range(_REDUCE_CAP):
        if abs(B) <= A <= C:
            return (A, B, C), (u00, u01, u10, u11)
        t = _round_nearest_even(B, 2 * A)
        if t:
            B, C = B - 2 * A * t, A * t * t - B * t + C
            u01 -= t * u00
            u11 -= t * u10
        if A > C:
            A, B, C = C, -B, A
            u00, u01 = u01, -u00
            u10, u11 = u11, -u10
    raise InvariantError(f"no reduced form within {_REDUCE_CAP} steps")


def _min_vectors_ints(
    reduced: tuple[int, int, int], basis: tuple[int, int, int, int]
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Minimum and minimal vectors, one per +-pair, of a form reduced over `basis`.

    For a reduced form the minimum is A, and disc >= 3*A*C squeezes the
    search box for value <= A down to |u|, |v| <= 1, so the candidates
    are (1, 0), of value A, and (u, 1) for u = -1, 0, 1, taken over basis.
    """
    (A, B, C), (u00, u01, u10, u11) = reduced, basis
    rest = [(u00 * u + u01, u10 * u + u11) for u in (-1, 0, 1) if A * u * u + B * u + C == A]
    return A, ((u00, u10), *rest)


# -- forms of field elements ----------------------------------------------


def _scaled_form(x: FieldElem) -> tuple[int, int, int, Fraction]:
    """(A, B, C, L): the form of x's primitive label p + q*sqrt(d), and L = p/a."""
    p, q = primitive_normalize(x)
    return (*_trace_form_ints(x.field.d, p, q), Fraction(p * x.a.denominator, x.a.numerator))


@dataclass(frozen=True, slots=True)
class MinData:
    """Minimum of a trace form together with every vector attaining it."""

    mu: Fraction
    vectors: frozenset[FieldElem]


def _both_signs(coords) -> tuple[tuple[int, int], ...]:
    """The vectors coords, one per +-pair, with both signs, sorted, as in PerfectForm."""
    return tuple(sorted(c for u, v in coords for c in ((u, v), (-u, -v))))


def _vector_set(field: FieldDesc, coords) -> frozenset[FieldElem]:
    return frozenset(field.from_basis_coords(u, v) for u, v in coords)


def _min_coords(x: FieldElem) -> tuple[Fraction, tuple[tuple[int, int], ...]]:
    """Minimum of x, and its minimal vectors in basis coordinates (_both_signs).

    The form of the label p + q*sqrt(d) is p/a times that of
    x = a + b*sqrt(d) and has the same vectors.
    """
    p, q = primitive_normalize(x)
    m, vecs = _min_vectors_ints(*_reduce_ints(*_trace_form_ints(x.field.d, p, q)))
    return Fraction(m * x.a.numerator, p * x.a.denominator), _both_signs(vecs)


def min_data(x: FieldElem) -> MinData:
    """Minimum of Tr(x * y^2) over nonzero integral y, with its vectors."""
    mu, coords = _min_coords(x)
    return MinData(mu, _vector_set(x.field, coords))


def certified_box(x: FieldElem) -> tuple[int, int]:
    """Box bounds (ub, vb) that provably contain all minimal vectors of x.

    Uses the witness value m0 = min over (1,0), (0,1), (1,1), (1,-1); any
    vector of value <= m0 has disc * u^2 <= 4*C*m0 and disc * v^2 <= 4*A*m0.
    """
    A, B, C, _ = _scaled_form(x)
    disc = 4 * A * C - B * B
    m0 = min(A, C, A + B + C, A - B + C)
    ub = isqrt(4 * C * m0 // disc)
    vb = isqrt(4 * A * m0 // disc)
    return max(ub, 1), max(vb, 1)


def brute_force_min(x: FieldElem) -> MinData:
    """Independent minimum by direct search over a certified box.

    Never calls the reduction path, so it cross-checks min_data.  The box
    holds (1, 0), of value A, so the search starts from that value.  The
    box grows with the form's skew; one of more than _BOX_CAP points, a
    search of seconds, raises SizeLimitError instead.
    """
    A, B, C, L = _scaled_form(x)
    ub, vb = certified_box(x)
    points = (2 * ub + 1) * (vb + 1)
    if points > _BOX_CAP:
        size = decimal.Decimal(points)  # points may have too many digits for str()
        raise SizeLimitError(f"certified box of {size:.2e} points > {_BOX_CAP}")
    best, vecs = A, []
    for v in range(0, vb + 1):
        for u in range(-ub, ub + 1):
            if v == 0 and u <= 0:
                continue
            val = A * u * u + B * u * v + C * v * v
            if val < best:
                best, vecs = val, [(u, v)]
            elif val == best:
                vecs.append((u, v))
    return MinData(best / L, _vector_set(x.field, _both_signs(vecs)))
