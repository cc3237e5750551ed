"""Gauss reduction and trace-form minima, cross-checked two ways."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import power, trace_form
from unaryperfect import traceform
from unaryperfect.quadfield import FieldDesc, QuadFieldError, SizeLimitError, is_squarefree
from unaryperfect.quadfield import FieldElem, primitive_normalize
from unaryperfect.units import fundamental_unit, unit_square
from unaryperfect.traceform import (
    brute_force_min,
    certified_box,
    min_data,
    _min_vectors_ints,
    _reduce_ints,
    _round_nearest_even,
    _scaled_form,
    _trace_form_ints,
)

SQUAREFREE = [d for d in range(2, 200) if is_squarefree(d)]
fields = st.sampled_from([FieldDesc(d) for d in SQUAREFREE])


@st.composite
def totally_positive(draw):
    """A random totally positive element, usually non-integral."""
    field = draw(fields)
    p = draw(st.integers(1, 60))
    qcap = isqrt((p * p - 1) // field.d)
    q = draw(st.integers(-qcap, qcap))
    x = field.element(p, q)
    lam = draw(st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8))
    return lam * x


@st.composite
def definite_forms(draw):
    A = draw(st.integers(1, 240))
    C = draw(st.integers(1, 240))
    B = draw(st.integers(-480, 480))
    assume(4 * A * C > B * B)
    return A, B, C


def _value(form, u, v):
    A, B, C = form
    return A * u * u + B * u * v + C * v * v


def _times(m, e):
    """The product of 2x2 matrices (m00, m01, m10, m11)."""
    a, b, c, d = m
    p, q, r, s = e
    return a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s


ELEMENTARY = st.one_of(
    st.integers(-6, 6).map(lambda k: (1, k, 0, 1)),
    st.integers(-6, 6).map(lambda k: (1, 0, k, 1)),
    st.sampled_from([(0, -1, 1, 0), (1, 0, 0, -1), (-1, 0, 0, -1)]),
)


@st.composite
def unimodular_starts(draw):
    """A product of elementary matrices: shears, a quarter turn, reflections."""
    m = (1, 0, 0, 1)
    for e in draw(st.lists(ELEMENTARY, max_size=8)):
        m = _times(m, e)
    return m


def _over(form, basis):
    """The form written over basis, read off three values: B = f(c0 + c1) - f(c0) - f(c1)."""
    u00, u01, u10, u11 = basis
    A, C = _value(form, u00, u10), _value(form, u01, u11)
    return A, _value(form, u00 + u01, u10 + u11) - A - C, C


def _up_to_sign(vecs):
    return {max(y, (-y[0], -y[1])) for y in vecs}


def test_trace_form_frozen():
    F7 = FieldDesc(7)
    a1 = F7.element(Fraction(1, 2), Fraction(5, 28))
    assert trace_form(a1) == (1, 5, 7)
    assert _scaled_form(a1) == (28, 140, 196, 28)
    assert trace_form(F7.element(14, 5)) == (28, 140, 196)
    F5 = FieldDesc(5)
    half = F5.element(Fraction(3, 2), Fraction(1, 2))
    assert trace_form(half) == (3, 8, 7)
    assert _scaled_form(half) == (6, 16, 14, 2)
    F1007 = FieldDesc(1007)
    assert trace_form(F1007.element(476, 15)) == (952, 60420, 958664)
    assert _scaled_form(F1007.element(476, 15)) == (952, 60420, 958664, 1)


@given(fields, st.integers(1, 300), st.integers(-60, 60))
def test_integer_kernel_matches_trace_form(field, p, q):
    x = field.element(p, q)
    assume(x.is_totally_positive())
    A, B, C = _trace_form_ints(field.d, p, q)
    assert trace_form(x) == (A, B, C)


@given(totally_positive())
def test_scaled_form_matches_trace_form(x):
    # the integer form is that of the primitive point of x's ray
    A, B, C, L = _scaled_form(x)
    assert L * x == x.field.element(*primitive_normalize(x))
    assert (A, B, C) == tuple(L * c for c in trace_form(x))


@given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
def test_round_nearest_even_oracle(num, den):
    assert _round_nearest_even(num, den) == round(Fraction(num, den))


def test_minimum_is_exact_on_integer_coordinates():
    # FieldElem keeps the coordinates it is given, so the scale p/a must not become a float
    x = FieldElem(FieldDesc(7), 3, 1)
    for md in (min_data(x), brute_force_min(x)):
        assert type(md.mu) is Fraction and md.mu == 6


def test_trace_form_needs_totally_positive():
    F2 = FieldDesc(2)
    # 1 - sqrt(2) < 0 under the real embedding; 0; -1/2
    for x in (F2.element(1, -1), F2.element(0), F2.element(Fraction(-1, 2))):
        for fn in (trace_form, _scaled_form, min_data, certified_box, brute_force_min):
            with pytest.raises(QuadFieldError):
                fn(x)


def test_gauss_reduce_frozen():
    reduced, change = _reduce_ints(1, 5, 7)
    assert reduced == (1, 1, 1)
    assert change == (1, -2, 0, 1)

    # from another start the reduced basis differs; its vectors agree up to sign
    reduced, change = _reduce_ints(1, 5, 7, (3, 1, 2, 1))
    assert reduced == (1, -1, 1)
    assert change == (-1, 3, 0, -1)
    assert _min_vectors_ints(reduced, change) == (1, ((-1, 0), (3, -1), (2, -1)))
    assert _min_vectors_ints(*_reduce_ints(1, 5, 7)) == (1, ((1, 0), (-3, 1), (-2, 1)))

    reduced, _ = _reduce_ints(952, 60420, 958664)
    assert reduced[0] == 72
    reduced, _ = _reduce_ints(476, 30210, 479332)
    assert reduced[0] == 36


@given(definite_forms(), st.integers(-5, 5), st.integers(-5, 5))
def test_gauss_reduce_invariants(form, u, v):
    reduced, (u00, u01, u10, u11) = _reduce_ints(*form)
    A, B, C = reduced
    assert abs(B) <= A <= C
    assert 4 * A * C - B * B == 4 * form[0] * form[2] - form[1] ** 2
    assert u00 * u11 - u01 * u10 in (1, -1)
    assert _value(form, u00 * u + u01 * v, u10 * u + u11 * v) == _value(reduced, u, v)


# (A, A, A) has three minimal +-pairs, (1, 0), (0, 1) and (1, -1)
with_three_pairs = st.one_of(definite_forms(), st.integers(1, 240).map(lambda a: (a, a, a)))


@given(with_three_pairs, unimodular_starts())
@example((1, 1, 1), (0, -1, 1, 0))
@example((7, 7, 7), (3, -2, -4, 3))
@example((5, -5, 5), (1, 6, 0, 1))
def test_reduction_from_a_unimodular_start(form, start):
    reduced, basis = _reduce_ints(*form, start)
    A, B, C = reduced
    assert abs(B) <= A <= C
    assert 4 * A * C - B * B == 4 * form[0] * form[2] - form[1] ** 2
    assert basis[0] * basis[3] - basis[1] * basis[2] in (1, -1)
    # the basis is in the form's own coordinates: it carries the form to the triple
    assert _over(form, basis) == reduced
    m, vecs = _min_vectors_ints(reduced, basis)
    m0, vecs0 = _min_vectors_ints(*_reduce_ints(*form))
    assert m == m0
    assert len(_up_to_sign(vecs)) == len(vecs)
    assert _up_to_sign(vecs) == _up_to_sign(vecs0)
    assert all(_value(form, *y) == m for y in vecs)
    if form[0] == form[1] == form[2]:
        assert _up_to_sign(vecs) == {(1, 0), (0, 1), (1, -1)}


@given(definite_forms())
def test_reduced_A_is_the_minimum(form):
    reduced, change = _reduce_ints(*form)
    best = min(
        _value(form, u, v)
        for u in range(-12, 13)
        for v in range(0, 13)
        if (u, v) != (0, 0) and not (v == 0 and u < 0)
    )
    # A is attained by an actual lattice vector, so it never beats the
    # box minimum; the box provably catches a minimal vector whenever the
    # basis change is small, and then the two agree
    assert reduced[0] <= best
    if all(abs(e) <= 6 for e in change):
        assert reduced[0] == best


def test_min_data_frozen():
    F7 = FieldDesc(7)
    a1 = F7.element(Fraction(1, 2), Fraction(5, 28))
    got = min_data(a1)
    assert got.mu == 1
    expected = set()
    for y in (F7.one(), F7.element(2, -1), F7.element(3, -1)):
        expected |= {y, -y}
    assert got.vectors == frozenset(expected)


@given(totally_positive())
@settings(max_examples=80)
def test_min_data_matches_brute_force(x):
    assert min_data(x) == brute_force_min(x)


@given(totally_positive(), st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6))
@settings(max_examples=60)
def test_minimum_scales_linearly(x, lam):
    base = min_data(x)
    scaled = min_data(lam * x)
    assert scaled.mu == lam * base.mu
    assert scaled.vectors == base.vectors


@given(totally_positive())
@settings(max_examples=60)
def test_minimal_vectors_attain_the_minimum(x):
    data = min_data(x)
    for y in data.vectors:
        assert y.is_integral()
        assert (-y) in data.vectors
        assert (x * y * y).trace() == data.mu
    assert data.vectors


def test_certified_box_never_degenerate():
    F = FieldDesc(79)
    ub, vb = certified_box(F.element(9, 1))
    assert ub >= 1 and vb >= 1


def test_brute_force_min_caps_its_box(monkeypatch):
    # the certified box of 1/2 + (5/28)*sqrt(7) is 7 x 2 = 14 points
    x = FieldDesc(7).element(Fraction(1, 2), Fraction(5, 28))
    monkeypatch.setattr(traceform, "_BOX_CAP", 14)
    assert brute_force_min(x) == min_data(x)
    monkeypatch.setattr(traceform, "_BOX_CAP", 13)
    with pytest.raises(SizeLimitError, match=r"^certified box of 1\.40e\+1 points"):
        brute_force_min(x)


def test_box_cap_message_past_the_str_digit_limit():
    # eps^2000 has a box of about 10^4800 points, past int's str() limit
    F = FieldDesc(7)
    x = power(unit_square(fundamental_unit(F)), 1000)
    with pytest.raises(SizeLimitError, match=r"^certified box of \d\.\d\de\+\d{4} points"):
        brute_force_min(x)
