"""Neighbour walk through the perfect forms of a real quadratic field.

Totally positive rays are parametrised by the slope s of 1 + s*sqrt(d),
s in (-1/sqrt(d), 1/sqrt(d)).  Each integral vector y contributes the
support line s -> Tr(y^2) + s*Tr(sqrt(d)*y^2); the form's minimum mu(s)
is the concave piecewise-linear lower envelope of these lines.  Envelope
vertices are exactly the perfect rays.  Multiplication by the squared
fundamental unit shifts slopes strictly rightward and permutes vertices,
so walking vertex to vertex until the start reappears translated lists
every class once; the vertex count of one period is the class count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .quadfield import (
    FieldDesc,
    FieldElem,
    PrimitivePair,
    QuadFieldError,
    primitive_normalize,
    slope,
)
from .traceform import (
    _min_vectors_ints,
    _reduce_ints,
    _trace_form_ints,
    _vector_set,
)
from .units import FundamentalUnit, SizeLimitError, fundamental_unit, unit_square

_TRIAL_CAP = 10**4
_WALK_CAP = 10**5


class WalkError(RuntimeError):
    """The walk lost its footing; indicates bad input or a bug."""


@dataclass(frozen=True, slots=True)
class SupportLine:
    """Value of the pencil 1 + s*sqrt(d) on one vector: intercept + s*slope_coef."""

    intercept: int
    slope_coef: int


def _line_of_basis_vec(d: int, half: bool, u: int, v: int) -> tuple[int, int]:
    """(Tr(y^2), Tr(sqrt(d)*y^2)) for y = u + v*omega; both are integers."""
    if half:
        return 2 * u * u + 2 * u * v + v * v * (1 + d) // 2, (2 * u * v + v * v) * d
    return 2 * (u * u + d * v * v), 4 * u * v * d


def support_line(y: FieldElem) -> SupportLine:
    return SupportLine(
        *_line_of_basis_vec(y.field.d, y.field.half_basis, *y.basis_coords())
    )


def _pair_data(d: int, half: bool, p: int, q: int):
    """Minimum, minimal vectors, and support lines of p + q*sqrt(d).

    Vectors come back in basis coordinates, one per +-pair; opposite
    vectors share a line, and distinct ones never do, so the line set
    sizes the vector set up to sign.
    """
    triple, change = _reduce_ints(*_trace_form_ints(d, half, p, q))
    m, vecs = _min_vectors_ints(*triple)
    u00, u01, u10, u11 = change
    coords = [(u00 * u + u01 * v, u10 * u + u11 * v) for u, v in vecs]
    return m, coords, {_line_of_basis_vec(d, half, u, v) for u, v in coords}


@dataclass(frozen=True, slots=True)
class PerfectForm:
    """An envelope vertex: the primitive integral form at a perfect ray."""

    form: FieldElem
    pair: PrimitivePair
    s: Fraction
    mu: int
    min_vectors: frozenset[FieldElem]


def _make_vertex(field: FieldDesc, p: int, q: int) -> PerfectForm:
    m, coords, _ = _pair_data(field.d, field.half_basis, p, q)
    return PerfectForm(
        form=field.element(p, q),
        pair=PrimitivePair(p, q),
        s=Fraction(q, p),
        mu=m,
        min_vectors=_vector_set(field, coords),
    )


def _below_boundary(d: int, denom: int) -> Fraction:
    """Largest fraction with the given denominator strictly below 1/sqrt(d)."""
    return Fraction(isqrt((denom * denom - 1) // d), denom)


def neighbor_step(field: FieldDesc, s0: Fraction, active: SupportLine) -> PerfectForm:
    """Next envelope vertex strictly right of s0.

    The active line must carry the envelope immediately right of s0.  A
    trial slope is probed; while the active line is the unique minimum
    the trial pushes right (two thirds of the way to a rational ceiling
    just under 1/sqrt(d), tightened each round so any vertex is passed
    eventually), and once the active line stops being minimal the trial
    pulls back to its last crossing with a current minimal line.  Each
    pullback lands on or right of the sought vertex, so the trial meets
    it exactly, with the active line minimal alongside at least one other.
    """
    d, half = field.d, field.half_basis
    akey = (active.intercept, active.slope_coef)
    denom = 4 * (s0.denominator + 1)
    upper = _below_boundary(d, denom)
    while upper <= s0:
        denom *= 4
        upper = _below_boundary(d, denom)
    s_t = (s0 + upper) / 2
    for _ in range(_TRIAL_CAP):
        _, _, lines = _pair_data(d, half, s_t.denominator, s_t.numerator)
        if akey in lines:
            if len(lines) >= 2:
                return _make_vertex(field, s_t.denominator, s_t.numerator)
            denom *= 4
            upper = _below_boundary(d, denom)
            s_t = s_t + (upper - s_t) * Fraction(2, 3)
            continue
        best: Fraction | None = None
        for ic, sc in lines:
            if sc == active.slope_coef:
                continue
            cross = Fraction(active.intercept - ic, sc - active.slope_coef)
            if best is None or cross > best:
                best = cross
        if best is None or not s0 < best < s_t:
            raise WalkError(
                f"line {akey} does not carry the envelope right of s = {s0}"
            )
        s_t = best
    raise WalkError(f"no vertex within {_TRIAL_CAP} trials right of s = {s0}")


def initial_perfect(field: FieldDesc) -> PerfectForm:
    """First envelope vertex right of the rational ray.

    At s = 0 the minimum 2 is attained by +-1 alone, so the line (2, 0)
    carries the envelope until the first vertex.
    """
    return neighbor_step(field, Fraction(0), SupportLine(2, 0))


def _rightward_line(vertex: PerfectForm) -> SupportLine:
    """The line carrying the envelope just right of the vertex.

    The envelope is concave, so that is the minimal line of smallest
    slope coefficient.
    """
    return min(
        (support_line(y) for y in vertex.min_vectors), key=lambda l: l.slope_coef
    )


@dataclass(frozen=True, slots=True)
class WalkResult:
    field: FieldDesc
    classes: tuple[PerfectForm, ...]
    unit: FundamentalUnit
    eps2: FieldElem

    @property
    def class_count(self) -> int:
        return len(self.classes)


def walk_classes(field: FieldDesc) -> WalkResult:
    """One perfect form per class modulo scaling and squared units.

    Starts at the first vertex right of the rational ray and walks right
    until that vertex returns multiplied by eps^2, which closes a full
    period of the envelope.
    """
    unit = fundamental_unit(field)
    eps2 = unit_square(unit)
    first = initial_perfect(field)
    shifted = first.form * eps2
    if slope(shifted) <= first.s:
        raise WalkError("squared unit failed to shift the start rightward")
    target = primitive_normalize(shifted)
    classes = [first]
    current = first
    for _ in range(_WALK_CAP):
        nxt = neighbor_step(field, current.s, _rightward_line(current))
        if nxt.pair == target:
            return WalkResult(field, tuple(classes), unit, eps2)
        classes.append(nxt)
        current = nxt
    raise SizeLimitError(f"period did not close within {_WALK_CAP} vertices")


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
