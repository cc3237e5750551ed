"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Elements are kept on the {1, sqrt(d)} basis with rational coordinates.
The ring of integers is Z[omega], omega = (t + sqrt(d))/g, omega^2 =
t*omega + n, and every formula on that basis reads (g, t, n) from
_omega.  No floating point is used anywhere.  Every module imports
this one, so the package's three error kinds are defined here.

Fraction only holds values; signs and integrality are decided on
integers.  x = a + b*sqrt(d) is totally positive exactly when its
cross-multiplied pair p = num(a)*den(b), q = num(b)*den(a), the
positive integer multiple p + q*sqrt(d) of x, has p > 0 and
p^2 > d*q^2 (_positive_pair).  x is integral exactly when g*b and
a - t*b, its coordinates over {1, omega}, come out of an exact integer
divmod of those numerators and denominators (_integer_coords).
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

_ZERO = Fraction(0)
_ONE = Fraction(1)

Scalar = Union[int, Fraction]


class QuadFieldError(ValueError):
    """An argument outside the domain of the function it was passed to."""


class SizeLimitError(RuntimeError):
    """A size cap (unit folds, walk classes, oracle box) was overrun: too large, not wrong."""


class InvariantError(RuntimeError):
    """An identity that holds for all valid inputs failed; signals a bug."""


def fraction_str(x: Fraction | int) -> str:
    """str(x), also past the digit limit that int's str() enforces.

    Units of large fields have coordinates of tens of thousands of digits,
    and the class pairs, minima and vectors of such fields can pass the
    limit too.  decimal converts ints to text without that limit, so the
    process-wide setting is left alone.
    """
    num = str(decimal.Decimal(x.numerator))
    if x.denominator == 1:
        return num
    return f"{num}/{decimal.Decimal(x.denominator)}"


def is_squarefree(d: int) -> bool:
    """Squarefreeness by trial division by 2 and odd p up to the cube root.

    After stripping primes p <= d**(1/3) the cofactor has at most two
    prime factors, so it fails to be squarefree only if it is a perfect
    square bigger than 1.
    """
    if d < 1:
        return False
    n = d
    if n % 2 == 0:
        n //= 2
        if n % 2 == 0:
            return False
    for p in range(3, _icbrt(d) + 1, 2):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
    r = isqrt(n)
    return r <= 1 or r * r != n


def _icbrt(n: int) -> int:
    """The integer cube root: the c with c^3 <= n < (c + 1)^3, for n >= 0.

    Newton's method on ints from a start above the root.  Each step
    (2*x + n // x^2) // 3 stays at or above the root, by the AM-GM
    inequality, and falls strictly while x^3 > n, so the first step that
    does not fall starts from the root.
    """
    if n < 1:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _omega(d: int) -> tuple[int, int, int]:
    """(g, t, n) for the generator omega of the ring of integers of Q(sqrt(d))."""
    if d % 4 == 1:
        return 2, 1, (d - 1) // 4
    return 1, 0, d


def _scalar(c: Scalar) -> Scalar:
    """c itself if it is an int or a Fraction, bools excepted, as FieldDesc takes d."""
    if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
        raise QuadFieldError(f"coordinates must be int or Fraction, got {c!r}")
    return c


@dataclass(frozen=True, slots=True)
class FieldDesc:
    """The field Q(sqrt(d)) for a squarefree integer d >= 2."""

    d: int

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or isinstance(self.d, bool):
            raise QuadFieldError(f"d must be an integer, got {self.d!r}")
        if self.d < 2:
            raise QuadFieldError(f"d must be >= 2, got {self.d}")
        if not is_squarefree(self.d):
            raise QuadFieldError(f"d must be squarefree, got {self.d}")

    @property
    def half_basis(self) -> bool:
        """True when the ring of integers is Z[(1 + sqrt(d))/2]."""
        return self.d % 4 == 1

    @property
    def basis_kind(self) -> str:
        return "HALF" if self.half_basis else "SQRT"

    def one(self) -> FieldElem:
        return FieldElem(self, _ONE, _ZERO)

    def sqrt_d(self) -> FieldElem:
        return FieldElem(self, _ZERO, _ONE)

    def element(self, a: Scalar, b: Scalar = 0) -> FieldElem:
        return FieldElem(self, Fraction(_scalar(a)), Fraction(_scalar(b)))

    def from_basis_coords(self, u: int, v: int) -> FieldElem:
        """The integral element u + v*omega = (u + t*v/g) + (v/g)*sqrt(d)."""
        g, t, _ = _omega(self.d)
        return FieldElem(self, Fraction(g * u + t * v, g), Fraction(v, g))


@dataclass(frozen=True, slots=True)
class FieldElem:
    """a + b*sqrt(d) with exact rational coordinates a, b, each an int or a Fraction."""

    field: FieldDesc
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        _scalar(self.a)
        _scalar(self.b)

    # -- ring structure ------------------------------------------------

    def _coerce(self, other) -> FieldElem | None:
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise QuadFieldError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElem(self.field, Fraction(_scalar(other)), _ZERO)
        return None

    def __add__(self, other) -> FieldElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other) -> FieldElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.field, self.a - o.a, self.b - o.b)

    def __rsub__(self, other) -> FieldElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.field, o.a - self.a, o.b - self.b)

    def __neg__(self) -> FieldElem:
        return FieldElem(self.field, -self.a, -self.b)

    def __mul__(self, other) -> FieldElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(
            self.field,
            self.a * o.a + self.field.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    # -- field invariants ----------------------------------------------

    def conj(self) -> FieldElem:
        """Galois conjugate a - b*sqrt(d)."""
        return FieldElem(self.field, self.a, -self.b)

    def trace(self) -> Fraction:
        return 2 * self.a

    def norm(self) -> Fraction:
        return self.a * self.a - self.field.d * self.b * self.b

    def is_totally_positive(self) -> bool:
        """Positive under both real embeddings."""
        return _positive_pair(self.field.d, *_cross_pair(self))

    def is_integral(self) -> bool:
        """Membership in the ring of integers: g*b and a - t*b are integers."""
        return _integer_coords(self) is not None

    def basis_coords(self) -> tuple[int, int]:
        """Coordinates (a - t*b, g*b) of self over {1, omega}; integral elements only."""
        coords = _integer_coords(self)
        if coords is None:
            raise QuadFieldError(f"{self} is not integral")
        return coords

    # -- rendering -------------------------------------------------------

    def __str__(self) -> str:
        d = self.field.d
        if not self.b:
            return fraction_str(self.a)
        root = f"sqrt({d})"
        if abs(self.b) != 1:
            root = f"{fraction_str(abs(self.b))}*{root}"
        if not self.a:
            return root if self.b > 0 else f"-{root}"
        sign = "+" if self.b > 0 else "-"
        return f"{fraction_str(self.a)} {sign} {root}"

    def __repr__(self) -> str:
        return f"FieldElem({self.field.d}: {self})"


def _cross_pair(x: FieldElem) -> tuple[int, int]:
    """(num(a)*den(b), num(b)*den(a)): x times the positive integer den(a)*den(b)."""
    a, b = x.a, x.b
    return a.numerator * b.denominator, b.numerator * a.denominator


def _positive_pair(d: int, p: int, q: int) -> bool:
    """Whether p + q*sqrt(d) is positive under both embeddings, in integers."""
    return p > 0 and p * p > d * q * q


def _integer_coords(x: FieldElem) -> tuple[int, int] | None:
    """x's coordinates (a - t*b, g*b) over {1, omega} if both are integers, else None.

    g*b = g*num(b)/den(b) is an integer v when that division leaves no
    remainder, and then a - t*b = (g*num(a) - t*v*den(a))/(g*den(a)).
    """
    g, t, _ = _omega(x.field.d)
    a, b = x.a, x.b
    v, r = divmod(g * b.numerator, b.denominator)
    if r:
        return None
    u, r = divmod(g * a.numerator - t * v * a.denominator, g * a.denominator)
    return None if r else (u, v)


def primitive_normalize(x: FieldElem) -> tuple[int, int]:
    """Canonical label of the ray of positive rational multiples of x.

    The coprime pair (p, q), p > 0, with p + q*sqrt(d) on that ray.
    """
    p, q = _cross_pair(x)
    if not _positive_pair(x.field.d, p, q):
        raise QuadFieldError(f"{x} is not totally positive")
    g = gcd(p, q)
    return p // g, q // g
