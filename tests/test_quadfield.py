"""Exact field arithmetic: algebra laws, integrality, canonical ray labels."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from oracles import real_sign, slope
from unaryperfect.quadfield import (
    FieldDesc,
    FieldElem,
    QuadFieldError,
    _icbrt,
    fraction_str,
    is_squarefree,
    primitive_normalize,
)

SQUAREFREE = [d for d in range(2, 300) if is_squarefree(d)]

fields = st.sampled_from([FieldDesc(d) for d in SQUAREFREE])
coords = st.fractions(min_value=-40, max_value=40, max_denominator=24)


@st.composite
def elems(draw, n=1, nonzero=False):
    """n elements of one shared field."""
    field = draw(fields)
    out = []
    for _ in range(n):
        x = FieldElem(field, draw(coords), draw(coords))
        if nonzero:
            assume(x.a or x.b)
        out.append(x)
    return out[0] if n == 1 else tuple(out)


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if flags[p]]


PRIMES = _sieve(10**5)


def test_squarefree_against_naive():
    cases = list(range(1, 2000))
    # the edge of the bound: the trial division stops at the cube root
    cases += [k**3 + e for k in range(2, 200) for e in (-1, 0, 1)]
    # p^2*m with p <= m < p + 6 has cube root p or p + 1, so p is the
    # last trial divisor; skipping it leaves p^2*m, not a square when m
    # is not, for the final test to pass as squarefree
    cases += [p * p * m for p in PRIMES[1:] if p < 1000 for m in range(p, p + 6)]
    for n in cases:
        naive = all(n % (p * p) for p in range(2, math.isqrt(n) + 1))
        assert is_squarefree(n) == naive, n
    assert not is_squarefree(0)
    assert not is_squarefree(-4)


@given(st.lists(st.sampled_from(PRIMES), min_size=1, max_size=6), st.booleans())
def test_squarefree_on_known_factorizations(primes, square):
    # samples up to 10^15, too large for the naive search: each is a
    # product of known primes, squarefree exactly when none repeats
    if square:
        primes = [*primes, primes[-1]]
    n, used = 1, []
    for p in primes:
        if n * p <= 10**15:
            n *= p
            used.append(p)
    assert is_squarefree(n) == (len(set(used)) == len(used)), used


@given(st.integers(0, 10**40))
@example(0)
@example(1)
@example(7)
@example(8)
def test_icbrt_brackets_the_cube_root(n):
    c = _icbrt(n)
    assert c**3 <= n < (c + 1) ** 3


@given(st.integers(1, 10**13))
def test_icbrt_at_a_cube(k):
    assert _icbrt(k**3) == k
    assert _icbrt(k**3 - 1) == k - 1


@pytest.mark.parametrize("bad", [1, 0, -5, 4, 12, 18, 999999999999999998 << 2])
def test_field_rejects_bad_d(bad):
    with pytest.raises(QuadFieldError):
        FieldDesc(bad)


def test_field_rejects_non_int():
    with pytest.raises(QuadFieldError):
        FieldDesc(True)
    with pytest.raises(QuadFieldError):
        FieldDesc("7")


NOT_SCALARS = [0.5, 0.1, 1 + 0j, "1/2", Decimal("0.5"), Decimal(1), True, False]
BUILDERS = {
    "FieldElem a": lambda c: FieldElem(FieldDesc(7), c, Fraction(0)),
    "FieldElem b": lambda c: FieldElem(FieldDesc(7), Fraction(1), c),
    "element a": lambda c: FieldDesc(7).element(c),
    "element b": lambda c: FieldDesc(7).element(1, c),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
@pytest.mark.parametrize("bad", NOT_SCALARS, ids=repr)
def test_coordinates_must_be_int_or_fraction(builder, bad):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, and a float
    # coordinate fails later, in str() or min_data, with an AttributeError
    with pytest.raises(QuadFieldError, match="coordinates must be int or Fraction"):
        BUILDERS[builder](bad)


OPERATORS = {
    "x + c": lambda x, c: x + c,
    "c + x": lambda x, c: c + x,
    "x - c": lambda x, c: x - c,
    "c - x": lambda x, c: c - x,
    "x * c": lambda x, c: x * c,
    "c * x": lambda x, c: c * x,
}


@pytest.mark.parametrize("op", sorted(OPERATORS))
@pytest.mark.parametrize("flag", [True, False])
def test_arithmetic_rejects_bools(op, flag):
    # a bool is an int to isinstance, so it would pass for 1 or 0
    with pytest.raises(QuadFieldError, match="coordinates must be int or Fraction"):
        OPERATORS[op](FieldDesc(7).element(1, 1), flag)


@pytest.mark.parametrize("op", sorted(OPERATORS))
@pytest.mark.parametrize("other", [0.5, "1/2", 1 + 0j, Decimal("0.5")], ids=repr)
def test_arithmetic_with_a_non_scalar_is_a_type_error(op, other):
    # FieldElem's operators return NotImplemented for these, so Python raises TypeError
    with pytest.raises(TypeError):
        OPERATORS[op](FieldDesc(7).element(1, 1), other)


def test_basis_kind():
    assert FieldDesc(2).basis_kind == "SQRT"
    assert FieldDesc(7).basis_kind == "SQRT"
    assert FieldDesc(5).basis_kind == "HALF"
    assert FieldDesc(13).half_basis
    assert not FieldDesc(1007).half_basis


def test_omega():
    assert FieldDesc(7).from_basis_coords(0, 1) == FieldDesc(7).sqrt_d()
    w = FieldDesc(5).from_basis_coords(0, 1)
    assert (w.a, w.b) == (Fraction(1, 2), Fraction(1, 2))
    # omega satisfies x^2 - x - (d-1)/4 = 0 on the half basis
    assert w * w == w + 1


@given(elems(3))
def test_ring_laws(xyz):
    x, y, z = xyz
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x - y + y == x
    assert x + (-x) == 0 * x


@given(elems(2))
def test_conjugation_is_a_ring_map(xy):
    x, y = xy
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()
    assert x.conj().conj() == x


@given(elems(2))
def test_trace_and_norm(xy):
    x, y = xy
    assert x.trace() == x.a * 2 == (x + x.conj()).a
    assert x.norm() == (x * x.conj()).a
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x + y).trace() == x.trace() + y.trace()


def test_cross_field_arithmetic_rejected():
    with pytest.raises(QuadFieldError):
        FieldDesc(2).one() + FieldDesc(3).one()


@given(elems())
def test_real_sign_matches_float_embedding(x):
    approx = float(x.a) + float(x.b) * math.sqrt(x.field.d)
    assume(abs(approx) > 1e-6)
    assert real_sign(x) == (1 if approx > 0 else -1)


@given(elems(nonzero=True))
def test_nonzero_elements_have_a_sign(x):
    # sqrt(d) is irrational, so a + b*sqrt(d) = 0 forces a = b = 0
    assert real_sign(x) != 0
    assert real_sign(-x) == -real_sign(x)


@given(elems())
def test_totally_positive_means_both_embeddings(x):
    both = real_sign(x) > 0 and real_sign(x.conj()) > 0
    assert x.is_totally_positive() == both


@given(fields, st.integers(-30, 30), st.integers(-30, 30))
def test_basis_coords_round_trip(field, u, v):
    y = field.from_basis_coords(u, v)
    assert y.is_integral()
    assert y.basis_coords() == (u, v)


@given(fields, st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_integral_elements_form_a_ring(field, u1, v1, u2, v2):
    x = field.from_basis_coords(u1, v1)
    y = field.from_basis_coords(u2, v2)
    assert (x + y).is_integral()
    assert (x * y).is_integral()
    assert x.trace().denominator == 1
    assert x.norm().denominator == 1


def test_integrality_boundary_cases():
    F5 = FieldDesc(5)
    assert F5.element(Fraction(1, 2), Fraction(1, 2)).is_integral()
    assert not F5.element(Fraction(1, 2), Fraction(1, 4)).is_integral()
    assert not F5.element(Fraction(1, 2)).is_integral()  # parity mismatch
    F7 = FieldDesc(7)
    assert F7.element(3, -2).is_integral()
    assert not F7.element(Fraction(1, 2), Fraction(1, 2)).is_integral()


def test_basis_coords_requires_integrality():
    with pytest.raises(QuadFieldError):
        FieldDesc(7).element(Fraction(1, 3)).basis_coords()


GRID = [Fraction(n, k) for n in range(-8, 9) for k in range(1, 5)]


@pytest.mark.parametrize("d", [d for d in range(2, 60) if is_squarefree(d)])
def test_integrality_is_integral_trace_and_norm(d):
    # x is integral exactly when its trace and norm are, whatever the basis
    field = FieldDesc(d)
    for a in GRID:
        for b in GRID:
            x = field.element(a, b)
            integral = x.trace().denominator == 1 and x.norm().denominator == 1
            assert x.is_integral() == integral, (d, a, b)
            if integral:
                assert field.from_basis_coords(*x.basis_coords()) == x
            else:
                with pytest.raises(QuadFieldError):
                    x.basis_coords()


def test_primitive_normalize_frozen():
    F7 = FieldDesc(7)
    a1 = F7.element(Fraction(1, 2), Fraction(5, 28))
    assert primitive_normalize(a1) == (14, 5)
    assert slope(a1) == Fraction(5, 14)
    F2 = FieldDesc(2)
    assert primitive_normalize(F2.element(3, -2)) == (3, -2)
    assert primitive_normalize(F2.element(6, -4)) == (3, -2)


@st.composite
def tp_elems(draw):
    """Totally positive by construction: |b|*sqrt(d) kept below a."""
    field = draw(fields)
    a = draw(st.fractions(min_value=1, max_value=40, max_denominator=12))
    t = draw(st.fractions(min_value=Fraction(-9, 10), max_value=Fraction(9, 10), max_denominator=10))
    b = t * a / (math.isqrt(field.d) + 1)
    return FieldElem(field, a, b)


@given(tp_elems(), st.fractions(min_value=Fraction(1, 20), max_value=20, max_denominator=20))
def test_primitive_label_is_scale_invariant(x, lam):
    p, q = pair = primitive_normalize(x)
    assert primitive_normalize(lam * x) == pair
    # the label reconstructs the ray
    rep = x.field.element(p, q)
    assert slope(rep) == slope(x)
    assert math.gcd(p, q) == 1 and p > 0


@given(elems())
@example(FieldDesc(7).element(1, 1))  # 1 + sqrt(7) has negative conjugate
@example(FieldDesc(7).element(-2))
@example(FieldDesc(2).element(0, 1))
@example(FieldDesc(5).element(Fraction(3, 2)))
@example(FieldDesc(3).element(0))
def test_normalize_requires_totally_positive(x):
    # the integer rule on the cross-multiplied pair, against the sign oracle
    positive = real_sign(x) > 0 and real_sign(x.conj()) > 0
    assert x.is_totally_positive() == positive
    if not positive:
        with pytest.raises(QuadFieldError):
            primitive_normalize(x)
        with pytest.raises(QuadFieldError):
            slope(x)
        return
    p, q = primitive_normalize(x)
    assert p > 0 and math.gcd(p, q) == 1
    assert p * x.b == q * x.a  # with p, a > 0: p + q*sqrt(d) is on x's ray


@given(tp_elems())
def test_slope_lies_in_the_cone(x):
    assert x.is_totally_positive()
    s = slope(x)
    assert s * s * x.field.d < 1


def test_rendering():
    F = FieldDesc(7)
    assert str(F.element(1, 1)) == "1 + sqrt(7)"
    assert str(F.element(0, -1)) == "-sqrt(7)"
    assert str(F.element(Fraction(-3, 2))) == "-3/2"
    assert str(F.element(0, 5)) == "5*sqrt(7)"
    assert str(FieldDesc(5).element(Fraction(1, 2), Fraction(-1, 2))) == "1/2 - 1/2*sqrt(5)"
    assert repr(F.element(2, -1)) == "FieldElem(7: 2 - sqrt(7))"


@given(st.fractions(), st.integers(-10**60, 10**60), st.integers(1, 10**60))
def test_fraction_str_matches_str(x, num, den):
    # the same text as str() wherever str() works
    assert fraction_str(x) == str(x)
    assert fraction_str(Fraction(num, den)) == str(Fraction(num, den))
    assert fraction_str(num) == str(num)
