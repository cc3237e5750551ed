"""Slow, independent references that the tests compare the library against.

Each oracle reaches its answer by a route the library does not use: the
trace form and class identity by field arithmetic instead of integer
scaling and ray labels, the fundamental unit by exhaustive search
instead of continued fractions, the continued fraction over its whole
period in division form instead of half of it without the division,
and the classes as the edges of a convex hull instead of a probe walk.
step_from_pair is no oracle: it runs the library's step from a class
given in the standard basis, through a frame it builds itself.
"""

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator

from unaryperfect.quadfield import (
    FieldDesc,
    FieldElem,
    QuadFieldError,
    SizeLimitError,
    primitive_normalize,
)
from unaryperfect.traceform import _in_basis, _min_coords, _reduce_ints, _trace_form_ints
from unaryperfect.units import FundamentalUnit
from unaryperfect.voronoi import WalkResult, neighbor_step


def trace_form(x: FieldElem) -> tuple[Fraction, Fraction, Fraction]:
    """(A, B, C) with Tr(x * (u + v*omega)^2) = A*u^2 + B*u*v + C*v^2."""
    if not x.is_totally_positive():
        raise QuadFieldError(f"{x} is not totally positive")
    w = x.field.from_basis_coords(0, 1)
    return x.trace(), 2 * (x * w).trace(), (x * w * w).trace()


def real_sign(x: FieldElem) -> int:
    """Sign under the embedding sending sqrt(d) to the positive root."""
    sa = (x.a > 0) - (x.a < 0)
    sb = (x.b > 0) - (x.b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # mixed signs: the larger square wins (equality needs d square)
    return sa if x.a * x.a > x.field.d * x.b * x.b else sb


def power(x: FieldElem, n: int) -> FieldElem:
    """x**n by repeated squaring; a negative n inverts x as conj(x)/norm(x)."""
    if n < 0:
        x, n = x.conj() * (1 / x.norm()), -n
    result = x.field.one()
    while n:
        if n & 1:
            result = result * x
        x = x * x
        n >>= 1
    return result


def slope(x: FieldElem) -> Fraction:
    """b/a, the coordinate of x's ray inside (-1/sqrt(d), 1/sqrt(d))."""
    if not x.is_totally_positive():
        raise QuadFieldError(f"{x} is not totally positive")
    return x.b / x.a


def classes_equal(x: FieldElem, y: FieldElem, eps2: FieldElem) -> bool:
    """Whether x and y span the same ray modulo powers of eps2.

    Multiplication by eps2 maps slopes by a strictly increasing Moebius
    map, so every class has exactly one ray with slope in
    [slope(y), slope(y*eps2)).  x is stepped there by eps2^(+-1), and
    the classes agree exactly when it lands on y's ray.
    """
    if not (x.is_totally_positive() and y.is_totally_positive()):
        raise QuadFieldError("class comparison needs totally positive forms")
    # without a norm-1 unit > 1 the steps below need not end
    if not (
        eps2.is_integral()
        and eps2.is_totally_positive()
        and eps2.norm() == 1
        and eps2.b > 0
    ):
        raise QuadFieldError(f"{eps2} is not a totally positive unit > 1")
    lo, hi = slope(y), slope(y * eps2)
    s = slope(x)
    while s < lo:
        x = x * eps2
        s = slope(x)
    inverse = eps2.conj()
    while s >= hi:
        x = x * inverse
        s = slope(x)
    return s == lo


def period_states(d: int, P: int, Q: int) -> Iterator[tuple[int, int, int]]:
    """(b_j, P_{j+1}, Q_{j+1}) along one period of the reduced surd (P + sqrt(d))/Q.

    The recurrence in division form, Q_{j+1} = (d - P_{j+1}^2)/Q_j, one
    state at a time and over the whole period; the library's unit loop
    runs it without the division and stops at the centre.  Q must be
    positive and divide d - P^2; both stay so along the period.
    """
    s = isqrt(d)
    P1, Q1 = P, Q
    for _ in range(10**6):
        a = (P + s) // Q
        P = a * Q - P
        Q = (d - P * P) // Q
        yield a, P, Q
        if P == P1 and Q == Q1:
            return
    raise SizeLimitError(f"no period within 10**6 steps for d={d}")


class SearchExhaustedError(RuntimeError):
    """Exhaustive unit search hit its bound without a solution."""


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


def minima_points(d: int) -> tuple[int, list[tuple[int, int]], list[tuple[int, int]]]:
    """g, the relative minima y_0 .. y_L over one period, and their points (A, D).

    The relative minima of the maximal order from 1 to the fundamental
    unit are y_0 = 1 and y_k = p_{k-1} - q_{k-1}*omega for k = 1 .. L,
    with p_k/q_k the convergents of omega = (t + sqrt(d))/g and L its
    period, written (u, v) for u + v*omega.  With x = g*u + t*v,
    (g*y)^2 = A + (D/d)*sqrt(d) for the point (A, D) = (x^2 + d*v^2,
    2*d*x*v), so the form p + q*sqrt(d) takes the value
    2*(p*A + q*D)/g^2 at y.
    """
    g, t = (2, 1) if d % 4 == 1 else (1, 0)
    a0 = (t + isqrt(d)) // g
    P = a0 * g - t
    # the complete quotient after a_0 is purely periodic, and its period
    # ends on a_L, which the convergents up to p_{L-1} do not use
    quotients = [a0] + [a for a, _, _ in period_states(d, P, (d - P * P) // g)][:-1]
    ys = [(1, 0)]
    (p0, p1), (q0, q1) = (0, 1), (1, 0)
    for a in quotients:
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        ys.append((p1, -q1))

    def point(u: int, v: int) -> tuple[int, int]:
        x = g * u + t * v
        return x * x + d * v * v, 2 * d * x * v

    return g, ys, [point(*y) for y in ys]


def lower_hull(points: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """The indices of the lower hull's vertices, and how many points each push popped.

    A monotone chain over the points in their order, which popping
    collinear points keeps to the vertices alone.
    """
    hull: list[int] = []
    pops = []
    for k, (A2, D2) in enumerate(points):
        popped = 0
        while len(hull) >= 2:
            (A0, D0), (A1, D1) = points[hull[-2]], points[hull[-1]]
            if (A1 - A0) * (D2 - D0) - (D1 - D0) * (A2 - A0) > 0:
                break
            hull.pop()
            popped += 1
        hull.append(k)
        pops.append(popped)
    return hull, pops


def hull_records(
    d: int,
) -> list[tuple[tuple[int, int], Fraction, tuple[tuple[int, int], ...]]]:
    """(pair, mu, min_vectors) of each lower hull edge of the relative minima over one period.

    The points are those of minima_points, and lower_hull keeps their
    lower hull, so an edge through three points is one class.  An
    edge's pair is the primitive normal (p, q), p > 0, on which both
    endpoints take the same value, mu is that value, and its minimal
    vectors are every y whose point lies on the edge, with both signs,
    sorted.
    """
    g, ys, points = minima_points(d)
    hull = lower_hull(points)[0]
    records = []
    for i, j in zip(hull, hull[1:]):
        (A0, D0), (A1, D1) = points[i], points[j]
        p, q = D1 - D0, A0 - A1
        h = gcd(p, q) if p > 0 else -gcd(p, q)
        p, q = p // h, q // h
        value = p * A0 + q * D0
        on = [y for y, (A, D) in zip(ys[i : j + 1], points[i : j + 1]) if p * A + q * D == value]
        vectors = tuple(sorted(c for u, v in on for c in ((u, v), (-u, -v))))
        records.append(((p, q), Fraction(2 * value, g * g), vectors))
    return records


def mirror_record(
    walk: WalkResult,
) -> tuple[tuple[int, int], Fraction, tuple[tuple[int, int], ...]]:
    """(pair, mu, min_vectors) of eps2*conj(x_0), x_0 the form of the walk's first class.

    The ray comes from field arithmetic, and the minimum and minimal
    vectors from one reduction of the ray's form from the identity, so
    nothing here uses the walk's stop or its warm-started reductions.
    """
    field = walk.field
    pair = primitive_normalize(field.element(*walk.classes[0].pair).conj() * walk.eps2)
    return (pair, *_min_coords(field.element(*pair)))


def step_from_pair(
    field: FieldDesc, pair: tuple[int, int], vec: tuple[int, int]
) -> tuple[tuple[int, int], int, tuple[tuple[int, int], ...]]:
    """(pair, mu, min_vectors) of neighbor_step's vertex right of the ray pair,
    leaving it along vec, both in the standard basis.

    neighbor_step leaves the ray (1, 0) of a frame.  The frame of
    c = p + q*sqrt(d) is built here: U from one reduction of c's trace
    form from the identity, and the forms of c and c*sqrt(d) written over
    U.  vec goes into the frame by U's inverse, and the vertex found at
    w = (x, y) comes back as the primitive label of c*w, its minimum over
    the gcd h of that label's parts, and its vectors through U.
    """
    d, (p, q) = field.d, pair
    G, U = _reduce_ints(*_trace_form_ints(d, p, q))
    H = _in_basis(_trace_form_ints(d, d * q, p), U)
    u00, u01, u10, u11 = U
    det = u00 * u11 - u01 * u10
    u, v = vec
    nxt, _ = neighbor_step(field, (det * (u11 * u - u01 * v), det * (u00 * v - u10 * u)), G + H)
    x, y = nxt.pair
    P, Q = p * x + d * q * y, q * x + p * y
    h = gcd(P, Q)
    vecs = tuple(sorted((u00 * s + u01 * t, u10 * s + u11 * t) for s, t in nxt.min_vectors))
    return (P // h, Q // h), nxt.mu // h, vecs
