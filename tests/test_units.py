"""Continued fractions and fundamental units, checked against the
classical Pell tables, the full-period unit and an exhaustive
lattice-scan oracle."""

import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SearchExhaustedError, period_states, power, real_sign, unit_brute_oracle
from unaryperfect import units
from unaryperfect.cli import squarefree_sieve
from unaryperfect.quadfield import (
    FieldDesc,
    InvariantError,
    QuadFieldError,
    SizeLimitError,
    is_squarefree,
)
from unaryperfect.units import (
    FundamentalUnit,
    fundamental_unit,
    unit_square,
)

SQUAREFREE = [d for d in range(2, 400) if is_squarefree(d)]

# sqrt(d) = [a0; period], classical handbook values
CF_TABLE = {
    2: (1, (2,)),
    3: (1, (1, 2)),
    5: (2, (4,)),
    6: (2, (2, 4)),
    7: (2, (1, 1, 1, 4)),
    13: (3, (1, 1, 1, 1, 6)),
    19: (4, (2, 1, 3, 1, 2, 8)),
    23: (4, (1, 3, 1, 8)),
    31: (5, (1, 1, 3, 5, 3, 1, 1, 10)),
}

# fundamental unit a + b*sqrt(d) of the maximal order, with norm sign
UNIT_TABLE = {
    2: (1, 1, -1),
    3: (2, 1, 1),
    5: (Fraction(1, 2), Fraction(1, 2), -1),
    6: (5, 2, 1),
    7: (8, 3, 1),
    10: (3, 1, -1),
    11: (10, 3, 1),
    13: (Fraction(3, 2), Fraction(1, 2), -1),
    14: (15, 4, 1),
    15: (4, 1, 1),
    17: (4, 1, -1),
    19: (170, 39, 1),
    21: (Fraction(5, 2), Fraction(1, 2), 1),
    22: (197, 42, 1),
    23: (24, 5, 1),
    26: (5, 1, -1),
    29: (Fraction(5, 2), Fraction(1, 2), -1),
    31: (1520, 273, 1),
    33: (23, 4, 1),
    61: (Fraction(39, 2), Fraction(5, 2), -1),
    94: (2143295, 221064, 1),
    109: (Fraction(261, 2), Fraction(25, 2), -1),
    223: (224, 15, 1),
    799: (424, 15, 1),
    1007: (476, 15, 1),
}


def cf_sqrt(d):
    """(a0, period) of sqrt(d), from the division-form recurrence of the oracle."""
    a0 = isqrt(d)
    return a0, tuple(a for a, _, _ in period_states(d, a0, d - a0 * a0))


@pytest.mark.parametrize("d,expected", sorted(CF_TABLE.items()))
def test_cf_sqrt_frozen(d, expected):
    assert cf_sqrt(d) == expected


def test_cf_sqrt_accepts_nonsquarefree():
    # the recurrence needs only Q > 0 dividing d - P^2, not a squarefree d
    assert cf_sqrt(8) == (2, (1, 4))


@pytest.mark.parametrize("square", [1, 4, 9, 49, 10**6])
def test_cf_sqrt_rejects_perfect_squares(square):
    # sqrt(d) of a square has no period (Q would start at 0); the units
    # layer takes a FieldDesc, which never carries a square
    with pytest.raises(QuadFieldError):
        fundamental_unit(FieldDesc(square))


@pytest.mark.parametrize("d", [d for d in range(2, 500) if isqrt(d) ** 2 != d])
def test_cf_structure(d):
    a0, period = cf_sqrt(d)
    assert all(a >= 1 for a in period)
    assert period[-1] == 2 * a0
    body = period[:-1]
    assert body == body[::-1]  # classical palindrome


@pytest.mark.parametrize("d,entry", sorted(UNIT_TABLE.items()))
def test_fundamental_unit_frozen(d, entry):
    a, b, sign = entry
    field = FieldDesc(d)
    got = fundamental_unit(field)
    assert got.value == field.element(a, b)
    assert got.norm_sign == sign


@pytest.mark.parametrize("d", SQUAREFREE)
def test_unit_is_a_unit(d):
    field = FieldDesc(d)
    u = fundamental_unit(field)
    assert u.value.is_integral()
    assert u.value.norm() == u.norm_sign
    assert u.norm_sign in (1, -1)
    assert real_sign(u.value - 1) > 0
    assert fundamental_unit(field) == u  # stateless, so every call agrees


@pytest.mark.parametrize("d", [d for d in range(2, 61) if is_squarefree(d)])
def test_oracle_agrees_for_small_fields(d):
    field = FieldDesc(d)
    assert unit_brute_oracle(field, 5000) == fundamental_unit(field)


@pytest.mark.parametrize("d", [d for d in SQUAREFREE if d % 4 != 1])
def test_norm_sign_is_period_parity(d):
    # for Z[sqrt(d)] the unit comes from the sqrt(d) expansion directly,
    # so its norm is (-1)^(period length)
    parity = -1 if len(cf_sqrt(d)[1]) % 2 else 1
    assert fundamental_unit(FieldDesc(d)).norm_sign == parity


def _stabilizer(a0, period):
    """(A, B, C, D) with xi = (A*xi + B)/(C*xi + D) for xi = [a0; period repeated].

    From the convergents p_k/q_k of xi over one period of length L it is
    [[p_{L-1}, p_L - a0*p_{L-1}], [q_{L-1}, q_L - a0*q_{L-1}]].
    """
    p_prev, p, q_prev, q = 1, a0, 0, 1
    for a in period:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p_prev, p - a0 * p_prev, q_prev, q - a0 * q_prev


@given(st.sampled_from(SQUAREFREE))
@settings(max_examples=60)
def test_stabilizer_fixes_sqrt(d):
    A, B, C, D = _stabilizer(*cf_sqrt(d))
    # (A*x + B)/(C*x + D) = x for x = sqrt(d) means B = C*d and A = D
    assert A == D and B == C * d
    assert abs(A * D - B * C) == 1
    field = FieldDesc(d)
    eps = fundamental_unit(field).value
    # D + C*sqrt(d) generates the units of Z[sqrt(d)], of index 1 or 3 when d = 1 (mod 4)
    assert field.element(D, C) in ((eps, power(eps, 3)) if d % 4 == 1 else (eps,))


@given(st.sampled_from([d for d in SQUAREFREE if d % 4 == 1]))
@settings(max_examples=40)
def test_stabilizer_fixes_half_surd(d):
    a0 = (1 + isqrt(d)) // 2
    P = 2 * a0 - 1
    period = tuple(a for a, _, _ in period_states(d, P, (d - P * P) // 2))
    assert period[-1] == 2 * a0 - 1
    assert period[:-1] == period[-2::-1]
    A, B, C, D = _stabilizer(a0, period)
    # x = (1 + sqrt(d))/2 satisfies x^2 = x + (d - 1)/4
    assert A == C + D
    assert B == C * (d - 1) // 4 and C * (d - 1) % 4 == 0
    assert abs(A * D - B * C) == 1
    field = FieldDesc(d)
    assert fundamental_unit(field).value == field.from_basis_coords(D, C)


def _omega_surd(field):
    """(a0, P, Q) with omega = a0 + 1/xi_1 and xi_1 = (P + sqrt(d))/Q reduced."""
    d, s = field.d, isqrt(field.d)
    if field.half_basis:
        a0 = (1 + s) // 2
        P = 2 * a0 - 1
        return a0, P, (d - P * P) // 2
    return s, s, d - s * s


def _full_period_unit(field):
    """The unit from the whole period: q_{L-1}*omega + q_L - a0*q_{L-1}."""
    a0, P, Q = _omega_surd(field)
    q_prev, q = 0, 1
    for a, _, _ in period_states(field.d, P, Q):
        q_prev, q = q, a * q + q_prev
    value = field.from_basis_coords(q - a0 * q_prev, q_prev)
    n = value.norm()
    assert n in (1, -1)
    return FundamentalUnit(value, int(n))


def test_centre_rule_matches_full_period():
    mismatches = [
        d
        for d in range(2, 10000)
        if is_squarefree(d)
        and fundamental_unit(FieldDesc(d)) != _full_period_unit(FieldDesc(d))
    ]
    assert mismatches == []


def test_centre_rule_matches_full_period_near_1e8():
    # the fields of the benchmark's unit survey: periods in the thousands
    ds = squarefree_sieve(10**8, 10**8 + 800)[:400]
    assert len(ds) == 400
    mismatches = [
        d for d in ds if fundamental_unit(FieldDesc(d)) != _full_period_unit(FieldDesc(d))
    ]
    assert mismatches == []


@pytest.mark.parametrize("d", [1000000006, 10000000003, 10000000006, 1000000009])
def test_centre_rule_matches_full_period_on_large_units(d):
    # units of 78k-109k bits, so the loop folds its block thousands of
    # times; both bases and both norm signs (only 1000000009 has norm -1)
    field = FieldDesc(d)
    assert fundamental_unit(field) == _full_period_unit(field)


def _continuant(word):
    q_prev, q = 0, 1
    for a in word:
        q_prev, q = q, a * q + q_prev
    return q


def _surd_with_period(word):
    """d with sqrt(d) = [a0; word, 2*a0], for a palindromic word.

    Perron: d = a0^2 + (2*a0*K(b_1..b_{n-1}) + K(b_2..b_{n-1}))/K(b_1..b_n),
    with a0 the least residue that makes d an integer.  That needs an odd
    K(b_1..b_n); the test checks the quotients it relies on.
    """
    k, k_head, k_mid = _continuant(word), _continuant(word[:-1]), _continuant(word[1:-1])
    a0 = -k_mid * pow(2 * k_head, -1, k) % k
    return a0 * a0 + (2 * a0 * k_head + k_mid) // k


HALF_WORD = (2**61, 2**61 + 1, 2**61 + 3, 2**61 + 5)


@pytest.mark.parametrize(
    "d",
    [
        2**140 + 2,  # sqrt(d) = [n; n, 2n] with n = 2^70: the centre is the first step
        _surd_with_period(HALF_WORD + HALF_WORD[-2::-1]),  # L = 8: three folds, then P_5 = P_4
        _surd_with_period(HALF_WORD + HALF_WORD[::-1]),  # L = 9: three folds, then Q_5 = Q_4
    ],
)
def test_block_fold_on_quotients_past_the_threshold(d):
    # every quotient passes 2^60, so the block folds on every step before
    # the centre; FieldDesc cannot take these d, whose squarefree test
    # trial-divides up to d^(1/3), so the loop is called on sqrt(d) itself
    s = isqrt(d)
    quotients = [a for a, _, _ in period_states(d, s, d - s * s)]
    assert quotients[-1] == 2 * s
    assert all(a > units._FOLD for a in quotients)
    r, c, n = units._centre_unit(d, s, d - s * s)
    assert (c, n) == (_continuant(quotients[:-1]), (-1) ** len(quotients))
    r2 = d * c * c + n
    assert r == isqrt(r2) and r * r == r2


def _half_period_product(d, A, q, Q, length):
    """(r, c) with r + c*sqrt(d) the centre product of the module docstring.

    A[k + 1], q[k + 1] and Q[k] hold A_k, q_k and Q_k; each coordinate
    must divide exactly.  L = 1 is the odd case at j = 0, where
    A_{-1} = Q_0 = g and q_{-1} = 0 leave A_0 + q_0*sqrt(d) = P_1 + sqrt(d).
    """
    j = length // 2
    if length % 2:  # (A_{j-1} + q_{j-1}*sqrt(d))*(A_j + q_j*sqrt(d))/Q_j
        r, c = A[j] * A[j + 1] + d * q[j] * q[j + 1], A[j] * q[j + 1] + A[j + 1] * q[j]
    else:  # (A_{j-1} + q_{j-1}*sqrt(d))^2/Q_j
        r, c = A[j] * A[j] + d * q[j] * q[j], 2 * A[j] * q[j]
    assert r % Q[j] == 0 and c % Q[j] == 0
    return r // Q[j], c // Q[j]


def test_half_period_products_give_the_unit():
    # the lemma behind the unit loop, on the sqrt(d) surd of every
    # squarefree d < 3000 and on the (1 + sqrt(d))/2 surd too where
    # d = 1 (mod 4): with xi = (t + sqrt(d))/g = [a0; b_1, ..., b_L]
    # and convergents p_k/q_k, A_k = P_{k+1}*q_k + Q_{k+1}*q_{k-1} is
    # g*p_k - t*q_k with norm (-1)^(k+1)*g*Q_{k+1} at every k, and the
    # centre product is g times the unit q_{L-1}*xi + q_L - a0*q_{L-1}
    checked = 0
    for d in range(2, 3000):
        if not is_squarefree(d):
            continue
        for g, t in [(1, 0), (2, 1)] if d % 4 == 1 else [(1, 0)]:
            a0 = (t + isqrt(d)) // g
            P1 = g * a0 - t
            states = [(a0, P1, (d - P1 * P1) // g)]
            states += period_states(d, P1, states[0][2])
            length = len(states) - 1
            Q = [g] + [Qk for _, _, Qk in states]  # Q_0 .. Q_{L+1}
            p, q, A = [1, a0], [0, 1], [g, P1]  # index k + 1 holds p_k, q_k, A_k
            for k, (b, P_next, Q_next) in enumerate(states[1:], start=1):
                p.append(b * p[k] + p[k - 1])
                q.append(b * q[k] + q[k - 1])
                A.append(P_next * q[k + 1] + Q_next * q[k])
            for k in range(length + 1):
                assert A[k + 1] == g * p[k + 1] - t * q[k + 1]
                assert A[k + 1] ** 2 - d * q[k + 1] ** 2 == (-1) ** (k + 1) * g * Q[k + 1]
            r, c = _half_period_product(d, A, q, Q, length)
            assert (r, c) == (g * (q[length + 1] - a0 * q[length]) + t * q[length], q[length])
            if g == 2 or d % 4 != 1:  # omega's surd: the unit of the ring of integers
                field = FieldDesc(d)
                assert fundamental_unit(field).value == field.element(Fraction(r, g), Fraction(c, g))
            checked += 1
    assert checked == 2427  # 1823 sqrt(d) surds and 604 half surds


# each case of the centre rule, with the period length L of the omega
# surd; every case has a sqrt(d) and a (1 + sqrt(d))/2 field
CENTRE_CASES = [
    (2, 1), (5, 1), (10, 1), (13, 1),  # back to the first state
    (3, 2), (6, 2), (21, 2),  # P_2 = P_1
    (17, 3), (41, 5), (58, 7),  # Q_{j+1} = Q_j
    (7, 4), (19, 6), (94, 16), (1007, 6), (33, 4), (129, 10),  # P_{j+1} = P_j
]


@pytest.mark.parametrize("d,length", CENTRE_CASES)
def test_centre_rule_cases(d, length):
    field = FieldDesc(d)
    _, P, Q = _omega_surd(field)
    assert sum(1 for _ in period_states(d, P, Q)) == length
    got = fundamental_unit(field)
    assert got == _full_period_unit(field)
    assert got.norm_sign == (-1) ** length
    assert got == unit_brute_oracle(field, 300000)


def test_step_cap_is_a_size_limit(monkeypatch):
    # with every step folding, d = 94 folds 7 times before the centre of
    # its period at step 8
    monkeypatch.setattr(units, "_FOLD", 0)
    monkeypatch.setattr(units, "_FOLD_CAP", 7)
    assert fundamental_unit(FieldDesc(94)).value == FieldDesc(94).element(2143295, 221064)
    monkeypatch.setattr(units, "_FOLD_CAP", 6)
    with pytest.raises(SizeLimitError, match="within 6 folds"):
        fundamental_unit(FieldDesc(94))


# (d, g, Q, n, A, q, B, p) as _centre_unit hands them to _centre_product,
# with the (r, c) it returns: L = 4 at d = 7, L = 5 at d = 41 (g = 2),
# and L = 1 at d = 2, whose halves are (g, 0) and (P_1, 1)
CENTRES = [
    ((7, 1, 2, 1, 3, 1, 3, 1), (8, 3)),
    ((41, 2, 4, -1, 7, 1, 19, 3), (64, 10)),
    ((2, 1, 1, -1, 1, 0, 1, 1), (1, 1)),
]


@pytest.mark.parametrize("centre,unit", CENTRES, ids=["d=7", "d=41", "d=2"])
def test_centre_product(centre, unit):
    assert units._centre_product(*centre) == unit


@pytest.mark.parametrize(
    "centre",
    [
        # Q = 3 divides the sqrt(d) part 2*3*1 but not the rational part
        # 3^2 + 7*1^2, whose remainder the half norm 2 != 1*3 betrays
        (7, 1, 3, 1, 3, 1, 3, 1),
        # the second half conjugated, 19 - 3*sqrt(41): the norms still
        # multiply to -(2*4)^2, but 4 does not divide 7*(-3) + 19*1
        (41, 2, 4, -1, 7, 1, 19, -3),
        # a wrong half norm: 3^2 - 7*1^2 = 2, not g*Q = 2*2
        (7, 2, 2, 1, 3, 1, 3, 1),
        # r < 1: -1 + sqrt(2) has norm -1 but is no unit > 1
        (2, 1, 1, -1, 1, 0, -1, 1),
    ],
    ids=["remainder-of-r", "remainder-of-c", "half-norm", "r-below-1"],
)
def test_bad_centre_is_an_invariant_error(centre):
    with pytest.raises(InvariantError, match="gives no unit"):
        units._centre_product(*centre)


def test_failed_norm_square_is_an_invariant_error(monkeypatch):
    # the centre of d = 7 checked as if L were odd: 8 + 3*sqrt(7) has
    # norm +1, so the halves' norms cannot multiply to -(g*Q)^2
    real = units._centre_product
    monkeypatch.setattr(
        units, "_centre_product", lambda d, g, Q, n, *halves: real(d, g, Q, -n, *halves)
    )
    with pytest.raises(InvariantError):
        fundamental_unit(FieldDesc(7))


def test_negative_rational_part_is_an_invariant_error(monkeypatch):
    # d = 2 with its second half P_1 + sqrt(2) turned into -1 + sqrt(2):
    # that solves the norm equation of d = 2 but is no unit > 1
    real = units._centre_product
    monkeypatch.setattr(
        units, "_centre_product", lambda d, g, Q, n, A, q, B, p: real(d, g, Q, n, A, q, -B, p)
    )
    with pytest.raises(InvariantError):
        fundamental_unit(FieldDesc(2))


def test_unit_memory_stays_flat():
    # period 21,032: a unit loop that keeps per-step state needs about 100 MB
    tracemalloc.start()
    try:
        fundamental_unit(FieldDesc(100000231))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize("d", [2, 5, 7, 13, 94])
def test_unit_square(d):
    u = fundamental_unit(FieldDesc(d))
    sq = unit_square(u)
    assert sq == power(u.value, 2)
    assert sq.norm() == 1
    assert sq.is_totally_positive()
    assert real_sign(sq - 1) > 0


def test_oracle_frozen_smallest_hit():
    # d = 5: y = 1 already solves x^2 = 5 - 4
    got = unit_brute_oracle(FieldDesc(5), 1)
    assert got == FundamentalUnit(FieldDesc(5).element(Fraction(1, 2), Fraction(1, 2)), -1)


def test_oracle_exhaustion():
    # smallest solution for d = 19 is y = 39
    with pytest.raises(SearchExhaustedError):
        unit_brute_oracle(FieldDesc(19), 38)
    assert unit_brute_oracle(FieldDesc(19), 39).value == FieldDesc(19).element(170, 39)


def test_oracle_rejects_bad_bound():
    with pytest.raises(QuadFieldError):
        unit_brute_oracle(FieldDesc(7), 0)


def test_oracle_prefers_negative_norm():
    # x^2 - 2y^2 = -1 and x^2 - 2y^2 = +1 both have solutions; the
    # smaller unit 1 + sqrt(2) must win over 3 + 2*sqrt(2)
    got = unit_brute_oracle(FieldDesc(2), 10)
    assert got.norm_sign == -1
    assert got.value == FieldDesc(2).element(1, 1)
