"""Closed-form families of perfect forms with known class counts.

Writing d = n^2 + r with -n < r <= n, four classical near-square shapes
of d force a single class.  Beyond those, when the fundamental unit
alpha + beta*sqrt(d) has beta = m(m+2) for odd m, the residue of alpha
mod beta^2 pins the count at 2 or 3; the three-class case comes with an
explicit two-parameter family (m, k, delta) and exact predictions for
the forms, their minima, and their minimal vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .quadfield import FieldDesc, FieldElem, InvariantError, QuadFieldError
from .traceform import _both_signs, _vector_set
from .units import FundamentalUnit, fundamental_unit

TAG_T1 = "T1"
TAG_T2 = "T2"
TAG_T3 = "T3"
TAG_T4 = "T4"
TAG_RD2 = "RD2"
TAG_FAM3 = "FAM3"
TAG_NONE = "UNCLASSIFIED"

_PREDICTED_COUNT = {
    TAG_T1: 1,
    TAG_T2: 1,
    TAG_T3: 1,
    TAG_T4: 1,
    TAG_RD2: 2,
    TAG_FAM3: 3,
    TAG_NONE: None,
}


def nr_decompose(d: int) -> tuple[int, int]:
    """(n, r) with d = n^2 + r and -n < r <= n; unique, n the nearest root."""
    if d < 2:
        raise QuadFieldError(f"d must be >= 2, got {d}")
    n = isqrt(d)
    r = d - n * n
    if r > n:
        n += 1
        r = d - n * n
    return n, r


def classify_T(d: int) -> str | None:
    """Tag of the near-square shape of d forcing one class, if any.

    T1: d = n^2+1, n odd.  T2: d = n^2-1, n even.  T3: d = n^2+4, n odd.
    T4: d = n^2-4, n > 3 odd.  The four are mutually exclusive.
    """
    n = isqrt(d - 1)
    if n * n + 1 == d and n % 2 == 1:
        return TAG_T1
    n = isqrt(d + 1)
    if n * n - 1 == d and n % 2 == 0:
        return TAG_T2
    if d >= 5:
        n = isqrt(d - 4)
        if n * n + 4 == d and n % 2 == 1:
            return TAG_T3
    n = isqrt(d + 4)
    if n * n - 4 == d and n % 2 == 1 and n > 3:
        return TAG_T4
    return None


@dataclass(frozen=True, slots=True)
class DClass:
    """Classification of d: a tag plus recovered parameters when known."""

    tag: str
    m: int | None = None
    k: int | None = None
    delta: int | None = None

    @property
    def predicted_class_count(self) -> int | None:
        return _PREDICTED_COUNT[self.tag]


def classify_unit_congruence(field: FieldDesc, unit: FundamentalUnit) -> DClass:
    """Classification read off the fundamental unit alpha + beta*sqrt(d).

    Applies when beta + 1 is the square of an even number >= 4, writing
    beta = m(m+2) with m odd >= 3, and the d = n^2 + r decomposition has
    r != +-1.  alpha = +-1 mod beta^2 pins two classes; alpha equal to
    +-((m-1)/2*(m+2)^2 + 1) mod beta^2 pins three and recovers (k, delta).
    Anything else is left unclassified rather than guessed.
    """
    if field.half_basis:
        raise QuadFieldError("unit congruence classes need d = 2, 3 (mod 4)")
    alpha, beta = unit.value.a, unit.value.b
    if alpha.denominator != 1 or beta.denominator != 1:
        raise InvariantError("fundamental unit is not integral")
    alpha, beta = int(alpha), int(beta)
    # the square of an even root is 0 mod 4; this skips the isqrt of a
    # unit-sized beta in most fields
    if (beta + 1) % 4:
        return DClass(TAG_NONE)
    root = isqrt(beta + 1)
    if root * root != beta + 1 or root % 2 or root < 4:
        return DClass(TAG_NONE)
    m = root - 1
    _, r = nr_decompose(field.d)
    if r in (1, -1):
        return DClass(TAG_NONE)
    bb = beta * beta
    res = alpha % bb
    if res in (1, bb - 1):
        return DClass(TAG_RD2, m=m)
    c = (m - 1) // 2 * (m + 2) ** 2 + 1
    if res == c % bb:
        return DClass(TAG_FAM3, m=m, k=(alpha - c) // bb, delta=1)
    if res == -c % bb:
        return DClass(TAG_FAM3, m=m, k=(alpha + c) // bb, delta=-1)
    return DClass(TAG_NONE)


def classify(field: FieldDesc, unit: FundamentalUnit) -> DClass:
    """Full classification: near-square shapes first, unit congruence next."""
    tag = classify_T(field.d)
    if tag is not None:
        return DClass(tag)
    if field.half_basis:
        return DClass(TAG_NONE)
    return classify_unit_congruence(field, unit)


# -- explicit class representatives ---------------------------------------


def _a1_a2_nr(field: FieldDesc) -> tuple[int, int]:
    """(n, r) of d = n^2 + r, under the hypothesis of a1 and a2: d = 2, 3 (mod 4), r != +-1."""
    if field.half_basis:
        raise QuadFieldError("a1 and a2 need d = 2, 3 (mod 4)")
    n, r = nr_decompose(field.d)
    if r in (1, -1):
        raise QuadFieldError(f"d = {field.d} has r = {r}; a1 and a2 need r != +-1")
    return n, r


def construct_a1_a2(field: FieldDesc) -> tuple[FieldElem, FieldElem]:
    """The conjugate pair of perfect forms present for every valid d.

    a1 = 1/2 + ((2n^2 + r - 1)/(4n(n^2 + r)))*sqrt(d), a2 its conjugate;
    needs d = 2, 3 (mod 4) and r != +-1.
    """
    n, r = _a1_a2_nr(field)
    a1 = FieldElem(
        field,
        Fraction(1, 2),
        Fraction(2 * n * n + r - 1, 4 * n * (n * n + r)),
    )
    return a1, a1.conj()


def construct_a3(unit: FundamentalUnit) -> FieldElem:
    """The third representative: the fundamental unit itself.

    Only meaningful in the three-class case, where the unit norm is
    forced to +1; a norm of -1 here means an upstream bug.
    """
    if unit.norm_sign != 1:
        raise InvariantError("three-class case requires a norm +1 unit")
    return unit.value


def _predicted_coords(
    which: str, field: FieldDesc, unit: FundamentalUnit | None = None
) -> tuple[tuple[int, int], ...]:
    """Closed-form minimal vectors of a1, a2, or a3, in basis coordinates (_both_signs).

    On d = 2, 3 (mod 4), omega = sqrt(d), so (u, v) is u + v*sqrt(d).
    a1 gets {+-(1, 0), +-(n, -1)}, enlarged by +-(n - 1, -1) on the
    boundary r = -(n-1); a2 negates v; a3 (unit alpha + beta*sqrt(d)
    needed) gets {+-(n, -1), +-(alpha*n - beta*d, alpha - beta*n)}, the
    second being conj(unit)*(n + sqrt(d)).
    """
    if which in ("a1", "a2"):
        n, r = _a1_a2_nr(field)
        vecs = [(1, 0), (n, -1)]
        if r == -(n - 1):
            vecs.append((n - 1, -1))
        if which == "a2":
            vecs = [(u, -v) for u, v in vecs]
    elif which == "a3":
        if unit is None or field.half_basis:
            raise QuadFieldError("a3 prediction needs the unit and d = 2, 3 (mod 4)")
        a3 = construct_a3(unit)
        n, _ = nr_decompose(field.d)
        alpha, beta = int(a3.a), int(a3.b)
        vecs = [(n, -1), (alpha * n - beta * field.d, alpha - beta * n)]
    else:
        raise QuadFieldError(f"unknown representative {which!r}")
    return _both_signs(vecs)


def predicted_minimal_set(
    which: str, field: FieldDesc, unit: FundamentalUnit | None = None
) -> frozenset[FieldElem]:
    """Closed-form minimal vectors of a1, a2, or a3, as field elements.

    a1 gets {+-1, +-(n - sqrt(d))}, enlarged by +-(n - 1 - sqrt(d)) on
    the boundary r = -(n-1); a2 is the conjugate set; a3 (unit needed)
    gets {+-(n - sqrt(d)), +-conj(unit)*(n + sqrt(d))}.  All need
    d = 2, 3 (mod 4).
    """
    return _vector_set(field, _predicted_coords(which, field, unit))


# -- the (m, k, delta) family ----------------------------------------------


@dataclass(frozen=True, slots=True)
class FamilyParams:
    """One candidate member of the three-class family."""

    m: int
    k: int
    delta: int
    l: int
    d: int
    alpha: int
    beta: int


def candidate_params(m: int, k: int, delta: int) -> FamilyParams:
    """Closed-form (l, d, alpha, beta) for the member at (m, k, delta).

    beta = m(m+2); l = k*beta + delta*(m+1)/2; d = l^2 - 2*delta*k*(m+1) - 1;
    alpha = k*beta^2 + delta*((m-1)/2*(m+2)^2 + 1).  The Pell identity
    alpha^2 - d*beta^2 = 1 holds for every (m, k, delta), d square or not;
    m + 1 is even, so d = l^2 - 1 = 0 or 3 (mod 4), and d >= 3.  Both are checked.
    """
    if m < 3 or m % 2 == 0:
        raise QuadFieldError(f"m must be odd >= 3, got {m}")
    if k < 0 or (k == 0 and delta != 1):
        raise QuadFieldError(f"k must be >= {1 if delta != 1 else 0}, got {k}")
    if delta not in (1, -1):
        raise QuadFieldError(f"delta must be +-1, got {delta}")
    beta = m * (m + 2)
    l = k * beta + delta * (m + 1) // 2
    d = l * l - 2 * delta * k * (m + 1) - 1
    alpha = k * beta * beta + delta * ((m - 1) // 2 * (m + 2) ** 2 + 1)
    p = FamilyParams(m, k, delta, l, d, alpha, beta)
    if p.alpha * p.alpha - p.d * p.beta * p.beta != 1 or p.d < 3 or p.d % 4 in (1, 2):
        raise InvariantError(f"Pell identity or d >= 3, d = 0, 3 (mod 4) failed at {p}")
    return p


def predicted_a3_minimum(params: FamilyParams) -> int:
    """mu of the unit form: 2*(k*((m+1)^2 + 1) + delta*(m+1)/2)."""
    m, k = params.m, params.k
    return 2 * (k * ((m + 1) ** 2 + 1) + params.delta * (m + 1) // 2)


@dataclass(frozen=True, slots=True)
class FamilyScan:
    """Accepted members, and each rejected candidate as (params, reason)."""

    accepted: tuple[FamilyParams, ...]
    rejected: tuple[tuple[FamilyParams, str], ...]


def generate_family(m_max: int, k_max: int, d_cap: int) -> FamilyScan:
    """All verified family members with d <= d_cap, plus the rejects.

    Candidates run lexicographically over odd m in [3, m_max], k up to
    k_max, delta = +1 then -1 (delta = -1 starts at k = 1).  A candidate
    is accepted if d <= d_cap, d is squarefree (so 3 mod 4: every candidate
    d is 0 or 3), r != +-1 (never at k = 0, where d = l^2 - 1 has r = -1),
    and alpha + beta*sqrt(d) is the fundamental unit.  A Pell solution need
    not be, so that is checked, not assumed; it has yet to reject one.
    """
    accepted: list[FamilyParams] = []
    rejected: list[tuple[FamilyParams, str]] = []
    for m in range(3, m_max + 1, 2):
        for k in range(0, k_max + 1):
            for delta in (1, -1):
                if k == 0 and delta == -1:
                    continue
                params = candidate_params(m, k, delta)
                d = params.d
                if d > d_cap:
                    rejected.append((params, "d above cap"))
                    continue
                try:
                    field = FieldDesc(d)
                except QuadFieldError:
                    rejected.append((params, "d not squarefree"))
                    continue
                _, r = nr_decompose(d)
                if r in (1, -1):
                    rejected.append((params, "r = +-1"))
                    continue
                unit = fundamental_unit(field)
                if unit.value != field.element(params.alpha, params.beta):
                    rejected.append((params, "unit not fundamental"))
                    continue
                accepted.append(params)
    return FamilyScan(tuple(accepted), tuple(rejected))
