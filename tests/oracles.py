"""Slow, independent references that the tests compare the library against.

Each oracle reaches its answer by a route the library does not use: the
trace form and class identity by field arithmetic instead of integer
scaling and ray labels, and the fundamental unit by exhaustive search
instead of continued fractions.
"""

from fractions import Fraction
from math import isqrt

from unaryperfect.quadfield import FieldDesc, FieldElem, QuadFieldError
from unaryperfect.units import FundamentalUnit


def trace_form(x: FieldElem) -> tuple[Fraction, Fraction, Fraction]:
    """(A, B, C) with Tr(x * (u + v*omega)^2) = A*u^2 + B*u*v + C*v^2."""
    if not x.is_totally_positive():
        raise QuadFieldError(f"{x} is not totally positive")
    w = x.field.omega()
    return x.trace(), 2 * (x * w).trace(), (x * w * w).trace()


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
