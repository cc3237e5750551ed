"""Envelope vertices and the neighbour walk: frozen small fields plus
structural invariants of whole walks."""

from collections import Counter
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unaryperfect import traceform, voronoi
from unaryperfect.quadfield import (
    FieldDesc,
    PrimitivePair,
    QuadFieldError,
    is_squarefree,
    primitive_normalize,
)
from unaryperfect.traceform import min_data
from unaryperfect.voronoi import (
    SupportLine,
    WalkError,
    classes_equal,
    initial_perfect,
    neighbor_step,
    support_line,
    walk_classes,
    _basis_of_line,
    _below_boundary,
    _rightward_line,
)

SQUAREFREE = [d for d in range(2, 120) if is_squarefree(d)]


def pm(*elems):
    out = set()
    for y in elems:
        out |= {y, -y}
    return frozenset(out)


def test_support_line_frozen():
    F2, F5, F7 = FieldDesc(2), FieldDesc(5), FieldDesc(7)
    assert support_line(F2.element(1, -1)) == SupportLine(6, -8)
    assert support_line(F5.omega() - 1) == SupportLine(3, -5)
    assert support_line(F7.one()) == SupportLine(2, 0)
    assert support_line(F7.element(3, -1)) == SupportLine(32, -84)


@given(
    st.sampled_from([FieldDesc(d) for d in SQUAREFREE]),
    st.integers(-15, 15),
    st.integers(-15, 15),
    st.fractions(min_value=Fraction(-1, 4), max_value=Fraction(1, 4), max_denominator=40),
)
def test_support_line_evaluates_the_pencil(field, u, v, s):
    if u == 0 and v == 0:
        return
    y = field.from_basis_coords(u, v)
    pencil = field.element(1) + field.sqrt_d() * s
    expected = (pencil * y * y).trace()
    line = support_line(y)
    assert line.intercept + s * line.slope_coef == expected


@given(st.sampled_from(SQUAREFREE), st.integers(3, 4000))
def test_below_boundary_is_tight(d, denom):
    num = isqrt((denom * denom - 1) // d)
    assert _below_boundary(d, denom) == Fraction(num, denom)
    # largest numerator strictly below the cone boundary 1/sqrt(d)
    assert num * num * d < denom * denom
    assert (num + 1) ** 2 * d > denom * denom


@given(
    st.sampled_from([FieldDesc(d) for d in SQUAREFREE]),
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6),
)
def test_basis_of_line_recovers_the_vector(field, u, v):
    sl = support_line(field.from_basis_coords(u, v))
    line = (sl.intercept, sl.slope_coef)
    if gcd(u, v) != 1:
        with pytest.raises(WalkError):
            _basis_of_line(field.d, field.half_basis, line)
        return
    m00, m01, m10, m11 = _basis_of_line(field.d, field.half_basis, line)
    assert m00 * m11 - m01 * m10 == 1
    assert (m00, m10) in ((u, v), (-u, -v))


@pytest.mark.parametrize("line", [(9999, 0), (2, 1), (0, 0), (-2, 0), (2, -28)])
def test_basis_of_line_rejects_lines_of_no_vector(line):
    with pytest.raises(WalkError):
        _basis_of_line(7, False, line)


INITIAL_TABLE = {
    2: (PrimitivePair(2, 1), Fraction(1, 2), 4),
    3: (PrimitivePair(2, 1), Fraction(1, 2), 4),
    5: (PrimitivePair(5, 1), Fraction(1, 5), 10),
    7: (PrimitivePair(14, 5), Fraction(5, 14), 28),
}


@pytest.mark.parametrize("d,expected", sorted(INITIAL_TABLE.items()))
def test_initial_vertex_frozen(d, expected):
    pair, s, mu = expected
    v = initial_perfect(FieldDesc(d))
    assert (v.pair, v.s, v.mu) == (pair, s, mu)


def test_initial_vertex_vectors_frozen():
    F2 = FieldDesc(2)
    assert initial_perfect(F2).min_vectors == pm(F2.one(), F2.element(1, -1))
    F3 = FieldDesc(3)
    assert initial_perfect(F3).min_vectors == pm(
        F3.one(), F3.element(1, -1), F3.element(2, -1)
    )
    F5 = FieldDesc(5)
    assert initial_perfect(F5).min_vectors == pm(F5.one(), F5.omega() - 1)
    F7 = FieldDesc(7)
    assert initial_perfect(F7).min_vectors == pm(
        F7.one(), F7.element(2, -1), F7.element(3, -1)
    )


def test_neighbor_step_frozen():
    F7 = FieldDesc(7)
    nxt = neighbor_step(F7, Fraction(5, 14), SupportLine(32, -84))
    assert nxt.pair == PrimitivePair(98, 37)
    F3 = FieldDesc(3)
    assert neighbor_step(F3, Fraction(0), SupportLine(2, 0)).pair == PrimitivePair(2, 1)


def test_neighbor_step_rejects_inactive_line():
    with pytest.raises(WalkError):
        neighbor_step(FieldDesc(7), Fraction(5, 14), SupportLine(9999, 0))


@pytest.mark.parametrize("s0", [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 7)])
def test_neighbor_step_rejects_slopes_outside_the_cone(s0):
    # no ceiling below 1/sqrt(7) passes these, so the search would never end
    with pytest.raises(WalkError):
        neighbor_step(FieldDesc(7), s0, SupportLine(2, 0))


def test_walk_work_is_flat_along_the_period(monkeypatch):
    # d = 1394942 has period 220 and pairs up to 753 bits; a ceiling search
    # from 4*(p+1) or a reduction from the standard basis costs rounds in
    # proportion to bits(p): 21 ceilings and 80 Gauss steps per reduction
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(voronoi, "_below_boundary")
    counted(voronoi, "_reduce_ints")
    counted(traceform, "_round_nearest_even")
    result = walk_classes(FieldDesc(1394942))
    assert result.class_count == 178
    assert calls["_below_boundary"] <= 2 * calls["_reduce_ints"]
    # 0.7 Gauss steps per reduction; 8.9 if s0 were reduced from scratch
    assert calls["_round_nearest_even"] <= 2 * calls["_reduce_ints"]
    monkeypatch.undo()
    # warm-started reductions against cold ones from the standard basis
    for cls in result.classes:
        md = min_data(cls.form)
        assert (md.mu, md.vectors) == (cls.mu, cls.min_vectors)


WALK_TABLE = {
    2: [(2, 1)],
    3: [(2, 1)],
    5: [(5, 1)],
    7: [(14, 5), (98, 37)],
    13: [(13, 3)],
    223: [(2230, 149), (497290, 33301)],
    799: [(3196, 113), (424, 15), (674356, 23857)],
    1007: [(32224, 1015), (476, 15), (6678424, 210455)],
}


@pytest.mark.parametrize("d,pairs", sorted(WALK_TABLE.items()))
def test_walk_frozen(d, pairs):
    walk = walk_classes(FieldDesc(d))
    assert [(c.pair.p, c.pair.q) for c in walk.classes] == pairs
    assert walk.class_count == len(pairs)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 15, 79, 223])
def test_walk_invariants(d):
    field = FieldDesc(d)
    walk = walk_classes(field)
    assert walk.classes[0].s > 0
    for i, cls in enumerate(walk.classes):
        assert len(cls.min_vectors) >= 4
        data = min_data(cls.form)
        assert data.mu == cls.mu
        assert data.vectors == cls.min_vectors
        if i:
            assert cls.s > walk.classes[i - 1].s
    # no class is counted twice
    for i, a in enumerate(walk.classes):
        for b in walk.classes[i + 1 :]:
            assert not classes_equal(a.form, b.form, walk.eps2)


@pytest.mark.parametrize("d", [2, 7, 13, 223])
def test_walk_period_closes(d):
    field = FieldDesc(d)
    walk = walk_classes(field)
    last = walk.classes[-1]
    nxt = neighbor_step(field, last.s, _rightward_line(last))
    assert nxt.pair == primitive_normalize(walk.classes[0].form * walk.eps2)


@pytest.mark.parametrize("d", [7, 10, 79, 223])
def test_walk_respects_conjugation(d):
    # the envelope is conjugation-symmetric, so the class list must be too
    field = FieldDesc(d)
    walk = walk_classes(field)
    for cls in walk.classes:
        flipped = cls.form.conj()
        assert flipped.is_totally_positive()
        assert any(
            classes_equal(other.form, flipped, walk.eps2)
            for other in walk.classes
        )


def _is_perfect(x):
    """Whether x's minimum is attained on at least two +- pairs."""
    return len(min_data(x).vectors) >= 4


def test_is_perfect():
    F7 = FieldDesc(7)
    a1 = F7.element(Fraction(1, 2), Fraction(5, 28))
    assert _is_perfect(a1)
    assert not _is_perfect(F7.one())
    assert _is_perfect(a1 * Fraction(3, 7))
    eps2 = F7.element(8, 3) ** 2
    assert _is_perfect(a1 * eps2)


def test_vertex_at():
    # the walk's vertex on the ray of 14 + 5*sqrt(7), and a ray that is no vertex
    F7 = FieldDesc(7)
    (v,) = [c for c in walk_classes(F7).classes if c.pair == PrimitivePair(14, 5)]
    assert v.mu == 28
    assert v.min_vectors == min_data(F7.element(14, 5)).vectors
    assert not _is_perfect(F7.element(3, 1))  # minimum on a single line


def test_classes_equal():
    F7 = FieldDesc(7)
    eps2 = F7.element(8, 3) ** 2
    a1 = F7.element(Fraction(1, 2), Fraction(5, 28))
    a2 = a1.conj()
    assert classes_equal(a1, a1, eps2)
    assert classes_equal(a1, a1 * eps2, eps2)
    assert classes_equal(a1 * eps2 ** 2, a1, eps2)
    assert not classes_equal(a1, a2, eps2)  # d = 7 has two classes
    with pytest.raises(QuadFieldError):
        classes_equal(F7.element(1, 1), a1, eps2)


@pytest.mark.parametrize("d", [7, 13, 223])
@pytest.mark.parametrize("k", [-9, -4, 4, 9])
def test_classes_equal_far_powers(d, k):
    walk = walk_classes(FieldDesc(d))
    for cls in walk.classes:
        assert classes_equal(cls.form, cls.form * walk.eps2**k, walk.eps2)
        assert classes_equal(cls.form * walk.eps2**k, cls.form, walk.eps2)
    if walk.class_count > 1:
        a, b = walk.classes[:2]
        assert not classes_equal(a.form, b.form * walk.eps2**k, walk.eps2)


def test_classes_equal_rejects_bad_eps2():
    F7 = FieldDesc(7)
    eps2 = F7.element(8, 3) ** 2
    a1 = F7.element(Fraction(1, 2), Fraction(5, 28))
    for bad in (
        F7.one(),  # not > 1
        eps2.conj(),  # < 1
        -eps2,  # not totally positive
        F7.element(2),  # not a unit
        F7.element(Fraction(4, 3), Fraction(1, 3)),  # norm 1, not integral
        F7.element(8, 3) * F7.element(2, 1),  # norm -3
    ):
        with pytest.raises(QuadFieldError):
            classes_equal(a1, a1, bad)
    F2 = FieldDesc(2)
    with pytest.raises(QuadFieldError):
        classes_equal(F2.one(), F2.one(), F2.element(1, 1))  # norm -1
