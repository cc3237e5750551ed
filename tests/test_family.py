"""Near-square shapes, unit congruence classes, and the explicit
three-class family: frozen members plus the identities behind them."""

from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unaryperfect import family
from unaryperfect.family import (
    DClass,
    FamilyParams,
    TAG_FAM3,
    TAG_NONE,
    TAG_RD2,
    TAG_T1,
    TAG_T2,
    TAG_T3,
    TAG_T4,
    candidate_params,
    classify,
    classify_T,
    classify_unit_congruence,
    construct_a1_a2,
    construct_a3,
    generate_family,
    nr_decompose,
    _predicted_coords,
    predicted_a3_minimum,
    predicted_minimal_set,
)
from unaryperfect.quadfield import FieldDesc, InvariantError, QuadFieldError, is_squarefree
from unaryperfect.traceform import _min_coords, min_data
from unaryperfect.units import FundamentalUnit, fundamental_unit, unit_square


def u(d, a, b, sign):
    return FundamentalUnit(FieldDesc(d).element(a, b), sign)


@pytest.mark.parametrize(
    "d,n,r",
    [(2, 1, 1), (3, 2, -1), (5, 2, 1), (7, 3, -2), (10, 3, 1),
     (99, 10, -1), (223, 15, -2), (1007, 32, -17)],
)
def test_nr_decompose_frozen(d, n, r):
    assert nr_decompose(d) == (n, r)


@given(st.integers(2, 10**9))
def test_nr_decompose_is_the_nearest_square(d):
    n, r = nr_decompose(d)
    assert d == n * n + r
    assert -n < r <= n


def test_nr_decompose_rejects_small():
    with pytest.raises(QuadFieldError):
        nr_decompose(1)


@pytest.mark.parametrize(
    "d,tag",
    [(2, TAG_T1), (10, TAG_T1), (3, TAG_T2), (15, TAG_T2), (5, TAG_T3),
     (13, TAG_T3), (29, TAG_T3), (21, TAG_T4), (77, TAG_T4),
     (7, None), (11, None), (19, None), (1007, None)],
)
def test_classify_T_frozen(d, tag):
    assert classify_T(d) == tag


def test_near_square_shapes_are_mutually_exclusive():
    for d in range(2, 3000):
        hits = 0
        n = isqrt(d - 1)
        hits += n * n + 1 == d and n % 2 == 1
        n = isqrt(d + 1)
        hits += n * n - 1 == d and n % 2 == 0
        n = isqrt(max(d - 4, 0))
        hits += n * n + 4 == d and n % 2 == 1
        n = isqrt(d + 4)
        hits += n * n - 4 == d and n % 2 == 1 and n > 3
        assert hits <= 1, d
        assert (classify_T(d) is not None) == (hits == 1), d


def test_predicted_counts():
    assert DClass(TAG_T1).predicted_class_count == 1
    assert DClass(TAG_T4).predicted_class_count == 1
    assert DClass(TAG_RD2, m=3).predicted_class_count == 2
    assert DClass(TAG_FAM3, m=3, k=2, delta=1).predicted_class_count == 3
    assert DClass(TAG_NONE).predicted_class_count is None


CONGRUENCE_TABLE = {
    223: DClass(TAG_RD2, m=3),
    1007: DClass(TAG_FAM3, m=3, k=2, delta=1),
    799: DClass(TAG_FAM3, m=3, k=2, delta=-1),
    3811: DClass(TAG_FAM3, m=3, k=4, delta=1),
    3395: DClass(TAG_FAM3, m=3, k=4, delta=-1),
    11627: DClass(TAG_FAM3, m=5, k=3, delta=1),
    10439: DClass(TAG_FAM3, m=5, k=3, delta=-1),
    7: DClass(TAG_NONE),   # beta + 1 = 4, root below 4
    2: DClass(TAG_NONE),   # beta + 1 = 2, not a square
}


@pytest.mark.parametrize("d,expected", sorted(CONGRUENCE_TABLE.items(), key=lambda e: e[0]))
def test_classify_unit_congruence_frozen(d, expected):
    field = FieldDesc(d)
    assert classify_unit_congruence(field, fundamental_unit(field)) == expected


def test_classify_unit_congruence_synthetic_branches():
    # residue -1 mod beta^2 also lands in the two-class bucket
    assert classify_unit_congruence(FieldDesc(223), u(223, 226, 15, 1)).tag == TAG_RD2
    # right beta shape but d decomposes with r = 1: stays unclassified
    assert classify_unit_congruence(FieldDesc(26), u(26, 224, 15, 1)) == DClass(TAG_NONE)
    # residue matching neither branch
    assert classify_unit_congruence(FieldDesc(223), u(223, 240, 15, 1)) == DClass(TAG_NONE)
    # beta + 1 = 9 is an odd square: the mod-4 filter rejects it
    assert classify_unit_congruence(FieldDesc(223), u(223, 240, 8, 1)) == DClass(TAG_NONE)
    # beta + 1 = 12 passes the filter but is no square
    assert classify_unit_congruence(FieldDesc(223), u(223, 240, 11, 1)) == DClass(TAG_NONE)


def test_classify_unit_congruence_guards():
    with pytest.raises(QuadFieldError):
        classify_unit_congruence(FieldDesc(5), fundamental_unit(FieldDesc(5)))
    broken = FundamentalUnit(FieldDesc(7).element(Fraction(1, 3), 1), 1)
    with pytest.raises(InvariantError):
        classify_unit_congruence(FieldDesc(7), broken)


def test_classify_precedence():
    # near-square shapes win before any unit inspection
    F13 = FieldDesc(13)
    assert classify(F13, fundamental_unit(F13)) == DClass(TAG_T3)
    F33 = FieldDesc(33)
    assert classify(F33, fundamental_unit(F33)) == DClass(TAG_NONE)
    F1007 = FieldDesc(1007)
    assert classify(F1007, fundamental_unit(F1007)).tag == TAG_FAM3


A1_TABLE = {
    7: Fraction(5, 28),
    223: Fraction(149, 4460),
    1007: Fraction(1015, 64448),
}


@pytest.mark.parametrize("d,b", sorted(A1_TABLE.items()))
def test_construct_a1_a2_frozen(d, b):
    field = FieldDesc(d)
    a1, a2 = construct_a1_a2(field)
    assert a1 == field.element(Fraction(1, 2), b)
    assert a2 == a1.conj()


@pytest.mark.parametrize("d", [5, 13])  # d = 1 (mod 4)
def test_construct_a1_a2_needs_sqrt_basis(d):
    with pytest.raises(QuadFieldError):
        construct_a1_a2(FieldDesc(d))


@pytest.mark.parametrize("d", [2, 3, 10, 26])  # r = +-1
def test_construct_a1_a2_needs_interior_r(d):
    with pytest.raises(QuadFieldError):
        construct_a1_a2(FieldDesc(d))


VALID_DS = [
    d for d in range(2, 2000)
    if is_squarefree(d) and d % 4 != 1 and nr_decompose(d)[1] not in (1, -1)
]


@given(st.sampled_from(VALID_DS))
@settings(max_examples=100)
def test_a1_satisfies_the_defining_traces(d):
    field = FieldDesc(d)
    a1, a2 = construct_a1_a2(field)
    n, r = nr_decompose(d)
    assert a1.is_totally_positive()
    assert a1.trace() == 1
    y = field.element(n, -1)
    assert (a1 * y * y).trace() == 1
    if r == -(n - 1):
        z = field.element(n - 1, -1)
        assert (a1 * z * z).trace() == 1
    assert a2 == a1.conj()


def test_construct_a3():
    assert construct_a3(fundamental_unit(FieldDesc(1007))) == FieldDesc(1007).element(476, 15)
    with pytest.raises(InvariantError):
        construct_a3(fundamental_unit(FieldDesc(2)))  # norm -1


def test_predicted_minimal_sets_frozen():
    F7 = FieldDesc(7)
    def pm(*elems):
        return frozenset(y for v in elems for y in (v, -v))

    # d = 7 sits on the boundary r = -(n-1)
    assert predicted_minimal_set("a1", F7) == pm(F7.one(), F7.element(3, -1), F7.element(2, -1))
    assert predicted_minimal_set("a2", F7) == pm(F7.one(), F7.element(3, 1), F7.element(2, 1))

    F = FieldDesc(1007)
    assert predicted_minimal_set("a1", F) == pm(F.one(), F.element(32, -1))
    unit = fundamental_unit(F)
    assert predicted_minimal_set("a3", F, unit) == pm(F.element(32, -1), F.element(127, -4))


def test_predicted_minimal_sets_match_computation():
    for d in (7, 223, 1007):
        field = FieldDesc(d)
        a1, a2 = construct_a1_a2(field)
        for x, which in ((a1, "a1"), (a2, "a2")):
            data = min_data(x)
            assert data.mu == 1
            assert data.vectors == predicted_minimal_set(which, field)


def _element_predictions(field, unit):
    """The closed forms of predicted_minimal_set, written on field elements."""
    n, r = nr_decompose(field.d)
    root = field.sqrt_d()
    a1 = [field.one(), n - root] + ([n - 1 - root] if r == -(n - 1) else [])
    sets = {"a1": a1, "a2": [y.conj() for y in a1]}
    if unit is not None:
        sets["a3"] = [n - root, unit.value.conj() * (n + root)]
    return {which: frozenset(y for v in vecs for y in (v, -v)) for which, vecs in sets.items()}


def _check_coordinates(field, unit=None):
    reps = dict(zip(("a1", "a2"), construct_a1_a2(field)))
    if unit is not None:
        reps["a3"] = construct_a3(unit)
    for which, want in _element_predictions(field, unit).items():
        coords = _predicted_coords(which, field, unit)
        assert {field.from_basis_coords(u, v) for u, v in coords} == want, (field.d, which)
        assert predicted_minimal_set(which, field, unit) == want, (field.d, which)
        x = reps[which]
        data = min_data(x)
        mu, got = _min_coords(x)
        assert mu == data.mu
        assert {field.from_basis_coords(u, v) for u, v in got} == data.vectors, (field.d, which)
        assert got == coords, (field.d, which)


def test_coordinate_predictions_on_every_small_field():
    # every d <= 3000 the constructors take: squarefree, 2 or 3 mod 4, r != +-1
    ds = [
        d for d in range(2, 3001)
        if d % 4 in (2, 3) and is_squarefree(d) and nr_decompose(d)[1] not in (1, -1)
    ]
    assert len(ds) == 1177
    for d in ds:
        _check_coordinates(FieldDesc(d))


def test_coordinate_predictions_on_the_benchmark_family():
    members = generate_family(41, 40, 10**14).accepted
    assert len(members) == 581
    for params in members:
        field = FieldDesc(params.d)
        _check_coordinates(field, fundamental_unit(field))


def test_predicted_minimal_set_guards():
    with pytest.raises(QuadFieldError):
        predicted_minimal_set("a1", FieldDesc(10))  # r = 1
    with pytest.raises(QuadFieldError):
        predicted_minimal_set("a3", FieldDesc(1007))  # unit missing
    with pytest.raises(InvariantError):
        predicted_minimal_set("a3", FieldDesc(2), fundamental_unit(FieldDesc(2)))
    with pytest.raises(QuadFieldError):
        predicted_minimal_set("a7", FieldDesc(1007))
    with pytest.raises(QuadFieldError):
        # the unit of d = 21, (5 + sqrt(21))/2, has norm +1; the family has no d = 1 (mod 4)
        predicted_minimal_set("a3", FieldDesc(21), fundamental_unit(FieldDesc(21)))


PARAMS_TABLE = {
    (3, 0, 1): (2, 3, 26, 15),
    (3, 2, 1): (32, 1007, 476, 15),
    (3, 2, -1): (28, 799, 424, 15),
    (3, 4, 1): (62, 3811, 926, 15),
    (3, 4, -1): (58, 3395, 874, 15),
    (5, 3, 1): (108, 11627, 3774, 35),
    (5, 3, -1): (102, 10439, 3576, 35),
}


@pytest.mark.parametrize("mkd,expected", sorted(PARAMS_TABLE.items()))
def test_candidate_params_frozen(mkd, expected):
    m, k, delta = mkd
    l, d, alpha, beta = expected
    assert candidate_params(m, k, delta) == FamilyParams(m, k, delta, l, d, alpha, beta)


@given(
    st.integers(1, 60).map(lambda t: 2 * t + 1),
    st.integers(0, 80),
    st.sampled_from([1, -1]),
)
def test_pell_identity_holds_everywhere(m, k, delta):
    if k == 0 and delta == -1:
        k = 1
    p = candidate_params(m, k, delta)  # raises InvariantError on failure
    assert p.alpha * p.alpha - p.d * p.beta * p.beta == 1
    assert p.beta == p.m * (p.m + 2)


@pytest.mark.parametrize(
    "m,k,delta", [(2, 1, 1), (1, 1, 1), (-3, 1, 1), (3, -1, 1), (3, 0, -1), (3, 1, 0)]
)
def test_candidate_params_guards(m, k, delta):
    with pytest.raises(QuadFieldError):
        candidate_params(m, k, delta)


def test_every_candidate_has_d_at_least_3_and_0_or_3_mod_4():
    # the grid CI verifies at d-cap 10^30: odd m <= 151, k <= 150
    ds = [
        candidate_params(m, k, delta).d
        for m in range(3, 152, 2)
        for k in range(151)
        for delta in ((1,) if k == 0 else (1, -1))
    ]
    assert len(ds) == 22575
    assert min(ds) == 3
    assert {d % 4 for d in ds} == {0, 3}


def test_no_member_at_k_0():
    # d = l^2 - 1 has r = -1, so generate_family never accepts k = 0
    for m in range(3, 152, 2):
        p = candidate_params(m, 0, 1)
        assert p.d == p.l * p.l - 1
        assert nr_decompose(p.d) == (p.l, -1)


@pytest.mark.parametrize(
    "d,alpha,beta",
    [(0, 1, 1), (-1, 0, 1), (5, 9, 4), (6, 5, 2)],
    ids=["d=0", "d=-1", "d=1 mod 4", "d=2 mod 4"],
)
def test_candidate_params_checks_d(monkeypatch, d, alpha, beta):
    # each record solves Pell, so only the checks on d can refuse it
    def bad_record(m, k, delta, l, _d, _alpha, _beta):
        return FamilyParams(m, k, delta, l, d, alpha, beta)

    assert alpha * alpha - d * beta * beta == 1
    monkeypatch.setattr(family, "FamilyParams", bad_record)
    with pytest.raises(InvariantError):
        candidate_params(3, 2, 1)


A3_MIN_TABLE = {
    (3, 2, 1): 72,
    (3, 2, -1): 64,
    (3, 4, 1): 140,
    (3, 4, -1): 132,
    (5, 3, 1): 228,
    (5, 3, -1): 216,
}


@pytest.mark.parametrize("mkd,mu", sorted(A3_MIN_TABLE.items()))
def test_predicted_a3_minimum_frozen(mkd, mu):
    assert predicted_a3_minimum(candidate_params(*mkd)) == mu


@given(
    st.integers(1, 30).map(lambda t: 2 * t + 1),
    st.integers(0, 40),
    st.sampled_from([1, -1]),
)
def test_a3_minimum_stays_below_half_the_trace_slope(m, k, delta):
    if k == 0 and delta == -1:
        k = 1
    # mu(a3) relative to 2*l never exceeds 1/2; only (m, k) = (3, 0) touches it
    num = 2 * k * (m + 1) + 1
    den = k * ((m + 1) ** 2 + 1) + (m + 1) // 2
    assert Fraction(num, den) <= Fraction(1, 2)
    assert (Fraction(num, den) == Fraction(1, 2)) == (m == 3 and k == 0)
    p = candidate_params(m, k, delta)
    assert predicted_a3_minimum(p) == 2 * (den + (delta - 1) * ((m + 1) // 2))


@given(st.integers(1, 1000), st.integers())
def test_interior_rays_stay_inside_the_cone(n, seed):
    r = -n + 1 + (seed % (2 * n))  # any r with -n < r <= n
    lhs = 1 - Fraction((r - 1) ** 2, 4 * n * n)
    assert lhs > Fraction(1, 4)


def test_generate_family_frozen():
    scan = generate_family(3, 4, 20000)
    assert [p.d for p in scan.accepted] == [1007, 799, 3811, 3395]
    reasons = sorted(reason for _, reason in scan.rejected)
    assert reasons == sorted(["r = +-1"] + ["d not squarefree"] * 4)
    assert sorted(params.d for params, _ in scan.rejected) == [3, 176, 280, 1872, 2184]

    scan = generate_family(5, 4, 20000)
    assert [p.d for p in scan.accepted] == [1007, 799, 3811, 3395, 11627, 10439]
    assert Counter(reason for _, reason in scan.rejected) == Counter(
        {"d not squarefree": 10, "r = +-1": 1, "d above cap": 1}
    )
    assert sorted(params.d for params, _ in scan.rejected) == [
        3, 8, 176, 280, 1035, 1431, 1872, 2184, 4512, 5304, 18816, 20400,
    ]
    assert all(is_squarefree(p.d) and p.d % 4 != 1 for p in scan.accepted)


def test_generate_family_rejects_a_unit_that_is_not_fundamental(monkeypatch):
    # no real candidate fails the check, so the unit is replaced by its square
    monkeypatch.setattr(
        family,
        "fundamental_unit",
        lambda field: FundamentalUnit(unit_square(fundamental_unit(field)), 1),
    )
    scan = generate_family(5, 4, 20000)
    assert scan.accepted == ()
    assert Counter(reason for _, reason in scan.rejected) == Counter(
        {"d not squarefree": 10, "r = +-1": 1, "d above cap": 1, "unit not fundamental": 6}
    )
    assert [p.d for p, reason in scan.rejected if reason == "unit not fundamental"] == [
        1007, 799, 3811, 3395, 11627, 10439,
    ]


def test_generate_family_small_cap_is_empty():
    scan = generate_family(5, 4, 100)
    assert scan.accepted == ()
    assert scan.rejected


def test_family_members_round_trip_through_the_classifier():
    for params in generate_family(5, 4, 20000).accepted:
        field = FieldDesc(params.d)
        unit = fundamental_unit(field)
        assert unit.value == field.element(params.alpha, params.beta)
        got = classify(field, unit)
        assert got == DClass(TAG_FAM3, m=params.m, k=params.k, delta=params.delta)
