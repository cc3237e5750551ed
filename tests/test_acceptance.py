"""Acceptance suite: one test per shipped claim, all arithmetic exact.

Each test prints a single PASS line with its measured runtime; a failed
assertion keeps the line from printing and fails the test.  Random
sampling is seeded, so every run checks the same instances.
"""

import random
import time
from fractions import Fraction
from math import isqrt

from oracles import (
    SearchExhaustedError,
    hull_records,
    mirror_record,
    period_states,
    power,
    real_sign,
    step_from_pair,
    trace_form,
    unit_brute_oracle,
)
from unaryperfect.cli import squarefree_sieve
from unaryperfect.family import (
    TAG_FAM3,
    TAG_RD2,
    classify,
    classify_T,
    construct_a1_a2,
    construct_a3,
    generate_family,
    nr_decompose,
    predicted_a3_minimum,
    predicted_minimal_set,
)
from unaryperfect.quadfield import FieldDesc, _omega, is_squarefree, primitive_normalize
from unaryperfect.traceform import _reduce_ints, _scaled_form, brute_force_min, min_data
from unaryperfect.units import fundamental_unit
from unaryperfect.voronoi import classes_equal, walk_classes

SEED = 20260817

_walk_cache = {}


def _walk(d):
    if d not in _walk_cache:
        _walk_cache[d] = walk_classes(FieldDesc(d))
    return _walk_cache[d]


def _passed(n, detail, t0):
    print(f"criterion {n}: PASS - {detail} ({time.monotonic() - t0:.1f}s)")


def _pm(*elems):
    return frozenset(y for v in elems for y in (v, -v))


def _form(walk, cls):
    return walk.field.element(*cls.pair)


def _match_bijectively(walk, reps):
    """Each representative must land in exactly one walk class, all distinct."""
    hits = []
    for rep in reps:
        js = [
            j
            for j, cls in enumerate(walk.classes)
            if classes_equal(_form(walk, cls), rep, walk.eps2)
        ]
        assert len(js) == 1, f"representative matched classes {js}"
        hits.append(js[0])
    assert sorted(hits) == list(range(len(walk.classes)))


def test_criterion_1_one_class_exactly_for_near_squares():
    """Over every squarefree d in [2, 3000]: the walk finds one class
    precisely when d has a T1-T4 near-square shape, and every RD2/FAM3
    tag predicts its class count correctly."""
    t0 = time.monotonic()
    ds = squarefree_sieve(2, 3000)
    one_class = []
    tagged = []
    for d in ds:
        field = FieldDesc(d)
        walk = _walk(d)
        tag = classify_T(d)
        if walk.class_count == 1:
            one_class.append(d)
        if tag is not None:
            tagged.append(d)
        assert (walk.class_count == 1) == (tag is not None), d
        dclass = classify(field, fundamental_unit(field))
        if dclass.tag == TAG_RD2:
            assert walk.class_count == 2, d
        elif dclass.tag == TAG_FAM3:
            assert walk.class_count == 3, d
    assert one_class == tagged
    assert len(ds) == 1823
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _passed(1, f"{len(ds)} fields walked, {len(tagged)} single-class, sets equal", t0)


def test_criterion_2_two_class_fields_match_the_conjugate_pair():
    """d = 7 and d = 223 have exactly the classes of a1 and its conjugate."""
    t0 = time.monotonic()
    for d in (7, 223):
        field = FieldDesc(d)
        walk = _walk(d)
        assert walk.class_count == 2, d
        a1, a2 = construct_a1_a2(field)
        _match_bijectively(walk, (a1, a2))
    assert classify(FieldDesc(223), fundamental_unit(FieldDesc(223))).tag == TAG_RD2
    _passed(2, "d=7 and d=223 walk to exactly {a1, a2}", t0)


def test_criterion_3_family_members_have_three_known_classes():
    """Every family member with d <= 20000 (m <= 5, k <= 4) walks to
    exactly {a1, a2, a3} with the predicted minima and minimal vectors,
    re-derived by the reduction-free oracle before any comparison."""
    t0 = time.monotonic()

    # independent anchor first: brute-force the d = 1007 unit form
    F = FieldDesc(1007)
    bf = brute_force_min(F.element(476, 15))
    assert bf.mu == 72
    assert bf.vectors == _pm(F.element(32, -1), F.element(127, -4))

    scan = generate_family(5, 4, 20000)
    assert [p.d for p in scan.accepted] == [1007, 799, 3811, 3395, 11627, 10439]
    for params in scan.accepted:
        field = FieldDesc(params.d)
        unit = fundamental_unit(field)
        a1, a2 = construct_a1_a2(field)
        a3 = construct_a3(unit)

        walk = _walk(params.d)
        assert walk.class_count == 3, params
        _match_bijectively(walk, (a1, a2, a3))

        oracle3 = brute_force_min(a3)
        assert oracle3.mu == predicted_a3_minimum(params), params
        assert oracle3.vectors == predicted_minimal_set("a3", field, unit), params
        assert min_data(a3) == oracle3

        for rep, which in ((a1, "a1"), (a2, "a2")):
            oracle = brute_force_min(rep)
            assert oracle.mu == 1, params
            assert oracle.vectors == predicted_minimal_set(which, field), params
            assert min_data(rep) == oracle
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _passed(3, f"{len(scan.accepted)} members verified against the oracle", t0)


def test_criterion_4_a1_minimum_and_vector_law():
    """For 200 seeded-random valid d plus every boundary-shaped
    d = n^2 - n + 1 up to 20000: mu(a1) = 1, the pair {1, n - sqrt(d)}
    is minimal, and n - 1 - sqrt(d) is minimal exactly on the boundary."""
    t0 = time.monotonic()
    rng = random.Random(SEED)
    chosen = set()
    while len(chosen) < 200:
        d = rng.randrange(2, 20001)
        if not is_squarefree(d) or d % 4 == 1:
            continue
        if nr_decompose(d)[1] in (1, -1):
            continue
        chosen.add(d)
    boundary = []
    for n in range(3, isqrt(20000) + 2):
        d = n * n - n + 1
        if d <= 20000 and is_squarefree(d) and d % 4 != 1:
            boundary.append(d)
    assert len(boundary) >= 10
    assert {7, 31, 43, 91, 111} <= set(boundary)

    for d in sorted(chosen | set(boundary)):
        field = FieldDesc(d)
        n, r = nr_decompose(d)
        a1, _ = construct_a1_a2(field)
        data = min_data(a1)
        assert data.mu == 1, d
        assert _pm(field.one(), field.element(n, -1)) <= data.vectors, d
        edge = field.element(n - 1, -1)
        assert (edge in data.vectors) == (r == -(n - 1)), d
    _passed(4, f"{len(chosen)} random + {len(boundary)} boundary fields", t0)


def test_criterion_5_reduction_agrees_with_brute_force():
    """500 seeded-random totally positive forms: the reduction pipeline
    and the box oracle agree exactly, each integer form is the field-
    arithmetic trace form scaled to its primitive ray, and every integer
    reduction is a genuine unimodular change of variables."""
    t0 = time.monotonic()
    rng = random.Random(SEED + 5)
    pool = [d for d in range(2, 500) if is_squarefree(d)]
    done = 0
    while done < 500:
        d = rng.choice(pool)
        field = FieldDesc(d)
        q = rng.randint(-12, 12)
        p = rng.randint(1, 300)
        x = field.element(p, q)
        if not x.is_totally_positive():
            continue
        lam = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        x = lam * x
        assert min_data(x) == brute_force_min(x), (d, p, q, lam)

        A, B, C, L = _scaled_form(x)
        assert L * x == field.element(*primitive_normalize(x))
        assert (A, B, C) == tuple(L * c for c in trace_form(x))
        (Ar, Br, Cr), (u00, u01, u10, u11) = _reduce_ints(A, B, C)
        assert abs(Br) <= Ar <= Cr
        assert 4 * Ar * Cr - Br * Br == 4 * A * C - B * B
        assert u00 * u11 - u01 * u10 in (1, -1)
        for u, v in ((1, 0), (0, 1), (2, -3), (-1, 4)):
            s, t = u00 * u + u01 * v, u10 * u + u11 * v
            value = A * s * s + B * s * t + C * t * t
            assert value == Ar * u * u + Br * u * v + Cr * v * v
        done += 1
    _passed(5, "500 forms, minima and reductions exact", t0)


# For these fields the smallest unit solution is so large that a literal
# scan is out of reach; the frozen value is the sqrt(d)-coordinate of the
# continued-fraction unit.  Exhausting the scan up to isqrt(Y) + 1 still
# proves fundamentality: a smaller unit u would have the computed one as
# u^k with k >= 2, and the coordinate of u is at most the square root of
# the coordinate of u^2, which never exceeds that of u^k.
BIG_Y = {
    139: 6578829,
    151: 140634693,
    163: 5019135,
    166: 132015642,
    199: 1153080099,
    211: 19162705353,
    214: 47533775646,
    241: 9148450,
    249: 1084152,
    262: 6485718,
    271: 7044978537,
    283: 8219541,
}
_DIRECT_CAP = 700_000


def test_criterion_6_units_match_the_exhaustive_oracle():
    """Every squarefree d < 300: the continued-fraction unit is exactly
    the smallest unit found by exhaustive search (directly when feasible,
    by the power-gap exhaustion argument otherwise)."""
    t0 = time.monotonic()
    direct = 0
    for d in squarefree_sieve(2, 299):
        field = FieldDesc(d)
        unit = fundamental_unit(field)
        b = unit.value.b
        y = int(2 * b) if field.half_basis else int(b)
        assert y >= 1, d
        if y <= _DIRECT_CAP:
            assert d not in BIG_Y
            assert unit_brute_oracle(field, y) == unit, d
            direct += 1
        else:
            assert BIG_Y[d] == y, d
            value = unit.value
            assert value.is_integral() and value.norm() == unit.norm_sign
            assert real_sign(value - 1) > 0
            try:
                unit_brute_oracle(field, isqrt(y) + 1)
            except SearchExhaustedError:
                pass
            else:
                raise AssertionError(f"a unit below sqrt scale exists for d={d}")
        # beta of the shape m(m+2), m odd, forces a norm +1 unit
        if b.denominator == 1:
            root = isqrt(int(b) + 1)
            if root * root == int(b) + 1 and root % 2 == 0 and root >= 4:
                assert unit.norm_sign == 1, d
    assert direct == 182 - len(BIG_Y)
    _passed(6, f"{direct} fields checked directly, {len(BIG_Y)} by exhaustion", t0)


def test_criterion_7_invariance_and_symmetry():
    """Minima scale linearly, squared units leave them untouched,
    perfection is blind to both, and walks close into a conjugation-
    symmetric period."""
    t0 = time.monotonic()
    rng = random.Random(SEED + 7)
    pool = [d for d in range(2, 400) if is_squarefree(d)]
    done = 0
    while done < 60:
        d = rng.choice(pool)
        field = FieldDesc(d)
        q = rng.randint(-10, 10)
        p = rng.randint(1, 250)
        x = field.element(p, q)
        if not x.is_totally_positive():
            continue
        lam = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        base = min_data(x)

        scaled = min_data(lam * x)
        assert scaled.mu == lam * base.mu
        assert scaled.vectors == base.vectors
        # perfect: the minimum is attained on at least two +- pairs
        assert (len(scaled.vectors) >= 4) == (len(base.vectors) >= 4)

        eps2 = _walk(d).eps2
        shifted = min_data(x * eps2)
        assert shifted.mu == base.mu
        # z attains the minimum of x*eps^2 exactly when eps*z attains it for x
        inv = power(fundamental_unit(field).value, -1)
        assert shifted.vectors == frozenset(y * inv for y in base.vectors)
        assert (len(shifted.vectors) >= 4) == (len(base.vectors) >= 4)
        done += 1

    sample = squarefree_sieve(2, 3000)[::25] + [223, 799, 1007]
    for d in sample:
        walk = _walk(d)
        first, last = walk.classes[0], walk.classes[-1]
        # the step from the last vertex, in a frame built cold
        again = step_from_pair(walk.field, last.pair).pair
        assert again == primitive_normalize(_form(walk, first) * walk.eps2), d
        for cls in walk.classes:
            flipped = _form(walk, cls).conj()
            assert any(
                classes_equal(_form(walk, other), flipped, walk.eps2)
                for other in walk.classes
            ), d
    _passed(7, f"60 random forms, {len(sample)} walks closed and symmetric", t0)


def test_criterion_8_hull_edges_are_the_walked_classes():
    """Over every squarefree d in [2, 3000]: the lower hull of the
    relative minima over one unit period, an exact oracle independent of
    the walk, has one edge per walked class, in the walk's order, with
    the class's ray, minimum and minimal vectors; and the edges' rays
    meet every class once."""
    t0 = time.monotonic()
    ds = squarefree_sieve(2, 3000)
    classes = 0
    for d in ds:
        walk = _walk(d)
        records = hull_records(d)
        assert [(c.pair, c.mu, c.min_vectors) for c in walk.classes] == records, d
        hits = [walk.class_index(walk.field.element(*pair)) for pair, _, _ in records]
        assert None not in hits, d
        assert sorted(hits) == list(range(walk.class_count)), d
        classes += len(records)
    assert len(ds) == 1823 and classes == 24805
    _passed(8, f"{len(ds)} fields, {classes} hull edges, one per class, whole records", t0)


def test_criterion_8_conjugation_reflects_the_class_list():
    """Over every squarefree d in [2, 3000]: class_index(conj(x_j)) =
    (nK - 1 - j) mod nK for every class form x_j, so conj(x_0) lies in
    the last class, as the voronoi docstring proves; nK - 1 is odd when
    nK is even, so no class is its own conjugate, and exactly one class
    is when nK is odd.  The last class is eps^2*conj(x_0) as a whole
    record, its ray from field arithmetic and its minimum and vectors
    from one cold reduction, not from the walk's stop; test_voronoi's
    test_walk_period_closes checks the same on fields up to 2*10^9."""
    t0 = time.monotonic()
    ds = squarefree_sieve(2, 3000)
    odd = 0
    for d in ds:
        walk = _walk(d)
        n = walk.class_count
        flipped = [walk.class_index(_form(walk, cls).conj()) for cls in walk.classes]
        assert flipped == [(n - 1 - j) % n for j in range(n)], d
        fixed = sum(j == i for j, i in enumerate(flipped))
        if n % 2:
            assert fixed == 1, d
            odd += 1
        else:
            assert fixed == 0, d
        last = walk.classes[-1]
        assert (last.pair, last.mu, last.min_vectors) == mirror_record(walk), d
    assert len(ds) == 1823
    _passed(8, f"{len(ds)} fields reflected by conjugation, {odd} with one self-conjugate class", t0)


def test_criterion_8_parity_of_the_count_from_the_centre_state():
    """Over every squarefree d in [2, 3000], with L the period of omega:
    nK is odd when L is odd; when L is even, nK is even exactly when
    Q^2 < P^2 + d at the centre state (P, Q) = (P_j, Q_j) of the period,
    where P_{j+1} = P_j and the unit loop stops."""
    t0 = time.monotonic()
    ds = squarefree_sieve(2, 3000)
    even_periods = 0
    for d in ds:
        g, t, _ = _omega(d)
        P = g * ((t + isqrt(d)) // g) - t
        states = [(P, (d - P * P) // g)]
        states += [(P, Q) for _, P, Q in period_states(d, *states[0])]
        n = _walk(d).class_count
        if len(states) % 2 == 0:  # L = len(states) - 1 is odd
            assert n % 2 == 1, d
            continue
        P, Q = next(s for s, nxt in zip(states, states[1:]) if nxt[0] == s[0])
        assert (n % 2 == 0) == (Q * Q < P * P + d), d
        even_periods += 1
    assert len(ds) == 1823
    _passed(8, f"{len(ds)} fields, {even_periods} of even period, parity from the centre", t0)
