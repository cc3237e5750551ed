"""Envelope vertices and the neighbour walk: frozen small fields plus
structural invariants of whole walks."""

import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from unaryperfect import traceform, voronoi
from unaryperfect.cli import squarefree_sieve
from unaryperfect.family import (
    classify_T,
    construct_a1_a2,
    construct_a3,
    generate_family,
    nr_decompose,
)
from unaryperfect.quadfield import (
    FieldDesc,
    FieldElem,
    InvariantError,
    QuadFieldError,
    _omega,
    is_squarefree,
    primitive_normalize,
)
from unaryperfect.traceform import min_data
from unaryperfect.units import fundamental_unit, unit_square
from unaryperfect.voronoi import (
    classes_equal,
    neighbor_step,
    walk_classes,
    _below_boundary,
    _line_of_basis_vec,
    _support_forms,
)

SQUAREFREE = [d for d in range(2, 120) if is_squarefree(d)]


def coords(elems):
    """Sorted basis coordinates of field elements, as a walked class lists them."""
    return tuple(sorted(y.basis_coords() for y in elems))


def pm(*elems):
    return coords({z for y in elems for z in (y, -y)})


def line_of(y):
    return _line_of_basis_vec(_support_forms(y.field.d), *y.basis_coords())


def form(field, cls):
    return field.element(*cls.pair)


def slope_of(cls):
    p, q = cls.pair
    return Fraction(q, p)


def rightward_vec(field, cls):
    """The minimal vector whose line has the least slope, as the walk leaves a vertex."""
    forms = _support_forms(field.d)
    return min(cls.min_vectors, key=lambda y: _line_of_basis_vec(forms, *y)[1])


def test_support_line_frozen():
    F2, F5, F7 = FieldDesc(2), FieldDesc(5), FieldDesc(7)
    assert line_of(F2.element(1, -1)) == (6, -8)
    assert line_of(F5.from_basis_coords(-1, 1)) == (3, -5)
    assert line_of(F7.one()) == (2, 0)
    assert line_of(F7.element(3, -1)) == (32, -84)


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
    intercept, slope_coef = line_of(y)
    assert intercept + s * slope_coef == expected


@given(st.sampled_from(SQUAREFREE), st.integers(3, 4000))
def test_below_boundary_is_tight(d, denom):
    num = isqrt((denom * denom - 1) // d)
    assert _below_boundary(d, denom) == Fraction(num, denom)
    # largest numerator strictly below the cone boundary 1/sqrt(d)
    assert num * num * d < denom * denom
    assert (num + 1) ** 2 * d > denom * denom


INITIAL_TABLE = {
    2: ((2, 1), Fraction(1, 2), 4),
    3: ((2, 1), Fraction(1, 2), 4),
    5: ((5, 1), Fraction(1, 5), 10),
    7: ((14, 5), Fraction(5, 14), 28),
}


@pytest.mark.parametrize("d,expected", sorted(INITIAL_TABLE.items()))
def test_initial_vertex_frozen(d, expected):
    pair, s, mu = expected
    v = walk_classes(FieldDesc(d)).classes[0]
    assert (v.pair, slope_of(v), v.mu) == (pair, s, mu)


def test_initial_vertex_vectors_frozen():
    F2 = FieldDesc(2)
    assert walk_classes(F2).classes[0].min_vectors == pm(F2.one(), F2.element(1, -1))
    F3 = FieldDesc(3)
    assert walk_classes(F3).classes[0].min_vectors == pm(
        F3.one(), F3.element(1, -1), F3.element(2, -1)
    )
    F5 = FieldDesc(5)
    assert walk_classes(F5).classes[0].min_vectors == pm(F5.one(), F5.from_basis_coords(-1, 1))
    F7 = FieldDesc(7)
    assert walk_classes(F7).classes[0].min_vectors == pm(
        F7.one(), F7.element(2, -1), F7.element(3, -1)
    )


def _first_two_minima(d):
    """y_1 and y_2, the relative minima of omega's first two convergents."""
    g, t, _ = _omega(d)
    a0 = (t + isqrt(d)) // g
    P = a0 * g - t
    a1 = (P + isqrt(d)) // ((d - P * P) // g)
    return (a0, -1), (a0 * a1 + 1, -a1)


def test_first_vertex_matches_the_probe_step_and_the_hull():
    # the first class from the first hull edge, whole records, against the
    # probe step from (1, 0) of the standard frame and the hull oracle's
    # first edge.  The edge ends at y_1 or y_2: at y_2 in 889 of the 1823
    # fields, and in 25 of those (d = 3, 7, ...) it passes through y_1 too
    ds = squarefree_sieve(2, 3000)
    second, through_first = [], []
    for d in ds:
        field = FieldDesc(d)
        cls = voronoi._first_vertex(field)[0]
        record = (cls.pair, cls.mu, cls.min_vectors)
        probe = neighbor_step(field, (1, 0), _support_forms(d))[0]
        assert record == (probe.pair, probe.mu, probe.min_vectors), d
        assert record == oracles.hull_records(d)[0], d
        y1, y2 = _first_two_minima(d)
        assert set(cls.min_vectors) <= {(1, 0), (-1, 0), y1, (-y1[0], 1), y2, (-y2[0], -y2[1])}
        if y2 in cls.min_vectors:
            second.append(d)
            if y1 in cls.min_vectors:
                through_first.append(d)
    assert len(ds) == 1823
    assert (len(second), second[:6]) == (889, [3, 7, 14, 15, 21, 22])
    assert (len(through_first), through_first[:2]) == (25, [3, 7])


@pytest.mark.parametrize("lo", [10**6, 10**9])
def test_first_vertex_matches_the_probe_step_at_large_d(lo):
    # 50 seeded squarefree d from lo, fields far past those tier-1 walks
    for d in random.Random(lo).sample(squarefree_sieve(lo, lo + 1000), 50):
        field = FieldDesc(d)
        cls = voronoi._first_vertex(field)[0]
        probe = neighbor_step(field, (1, 0), _support_forms(d))[0]
        assert (cls.pair, cls.mu, cls.min_vectors) == (probe.pair, probe.mu, probe.min_vectors), d


def test_hull_vertices_lie_at_most_two_minima_apart():
    # the two-step lemma of the module docstring, on the lower hull of the
    # relative minima y_0 .. y_L over one period, L from the period of
    # omega: consecutive vertices are one or two minima apart, the monotone
    # chain pops at most one point per push, and ceil(L/2) <= nK <= L.  The
    # 24805 edges take 6786 gaps of two, one pop each, and 245 fields meet
    # the lower bound, 394 the upper
    ds = squarefree_sieve(2, 3000)
    gaps, pops, low, high = Counter(), Counter(), 0, 0
    for d in ds:
        g, t, _ = _omega(d)
        P = g * ((t + isqrt(d)) // g) - t
        L = sum(1 for _ in oracles.period_states(d, P, (d - P * P) // g))
        ys, points = oracles.minima_points(d)[1:]
        hull, popped = oracles.lower_hull(points)
        assert len(ys) == L + 1 and (hull[0], hull[-1]) == (0, L), d
        gaps.update(j - i for i, j in zip(hull, hull[1:]))
        pops.update(popped)
        nK = len(hull) - 1
        assert -(-L // 2) <= nK <= L, d
        low += nK == -(-L // 2)
        high += nK == L
    assert len(ds) == 1823
    assert gaps == Counter({1: 18019, 2: 6786})
    assert pops == Counter({0: 26628, 1: 6786})
    assert (low, high) == (245, 394)


@pytest.mark.parametrize("lost", [(1, 0), (2, -1)])
def test_first_vertex_that_misses_its_points_is_an_invariant_error(monkeypatch, lost):
    # d = 3: the first edge holds 1, y_1 = 1 - sqrt(3) and y_2 = 2 - sqrt(3),
    # and the check names y_2, as ties go to the farther point.  A reduction
    # that loses 1 or y_2 has not found the vertex
    minima = voronoi._min_vectors_ints

    def losing(reduced, basis):
        mu, vecs = minima(reduced, basis)
        return mu, tuple(y for y in vecs if y not in (lost, (-lost[0], -lost[1])))

    monkeypatch.setattr(voronoi, "_min_vectors_ints", losing)
    with pytest.raises(InvariantError, match=r"\(2, 1\) is not the vertex of 1 and \(2, -1\)"):
        walk_classes(FieldDesc(3))


def test_neighbor_step_frozen():
    F7 = FieldDesc(7)
    # leaving 14 + 5*sqrt(7) along 3 - sqrt(7), whose line is (32, -84)
    assert oracles.step_from_pair(F7, (14, 5), (3, -1))[0] == (98, 37)
    F3 = FieldDesc(3)
    assert neighbor_step(F3, (1, 0), _support_forms(3))[0].pair == (2, 1)


def test_neighbor_step_rejects_inactive_line():
    # 1 + sqrt(7) is not minimal at 14 + 5*sqrt(7)
    with pytest.raises(QuadFieldError, match="does not carry the envelope"):
        oracles.step_from_pair(FieldDesc(7), (14, 5), (1, 1))


@pytest.mark.parametrize("vec", [(2, 0), (0, 0), (3, -3), (0, 2)])
def test_neighbor_step_rejects_vectors_that_are_not_primitive(vec):
    with pytest.raises(QuadFieldError, match="is not a primitive vector"):
        oracles.step_from_pair(FieldDesc(7), (14, 5), vec)


def test_trial_cap_overrun_is_an_invariant_error(monkeypatch):
    # a valid step always meets its vertex, so running out of trials is a bug
    monkeypatch.setattr(voronoi, "_TRIAL_CAP", 1)
    with pytest.raises(InvariantError, match=r"no vertex within 1 trials right of \(14, 5\)"):
        walk_classes(FieldDesc(7))


def test_failed_step_names_the_class_it_leaves(monkeypatch):
    # every step runs in the frame of the class it leaves, from its ray
    # (1, 0); the error names that class's pair in the standard basis.
    # d = 151 takes 11 trials on its seventh step and at most 9 before
    walk = walk_classes(FieldDesc(151))
    p, q = walk.classes[6].pair
    assert (p, q) == (37092096926, 3018512039)
    monkeypatch.setattr(voronoi, "_TRIAL_CAP", 10)
    message = rf"^no vertex within 10 trials right of \({p}, {q}\)$"
    with pytest.raises(InvariantError, match=message):
        walk_classes(FieldDesc(151))


def test_walk_work_is_flat_along_the_period(monkeypatch):
    # d = 1394942 has period 220 and pairs up to 753 bits; a ceiling search
    # from 4*p or a reduction from the standard basis costs rounds in
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
    field = FieldDesc(1394942)
    result = walk_classes(field)
    assert result.class_count == 178
    assert calls["_below_boundary"] <= 2 * calls["_reduce_ints"]
    # 0.70 Gauss steps per reduction (945 over 1346), flat along the
    # period, far below the 8.9 of a cold start
    assert calls["_round_nearest_even"] <= calls["_reduce_ints"]
    monkeypatch.undo()
    # warm-started reductions against cold ones from the standard basis
    for cls in result.classes:
        md = min_data(form(field, cls))
        assert (md.mu, coords(md.vectors)) == (cls.mu, cls.min_vectors)


def test_trial_labels_stay_near_the_class_labels(monkeypatch):
    # each step runs in the frame of the class it leaves, so a trial's
    # label stays near the ray of the next class in that frame and the
    # frame's forms, whatever the size of the class labels: no reduction
    # input has more than 160 bits (69 at d <= 1000, 111 at d = 1394942
    # and 123 at d = 1000003), where the class pairs reach 203 bits at
    # d <= 1000, 852 at d = 1394942 and 1672 at d = 1000003
    seen = []
    reduce = voronoi._reduce_ints

    def logged(A, B, C, start=(1, 0, 0, 1)):
        seen.append(max(abs(A), abs(B), abs(C)))
        return reduce(A, B, C, start)

    monkeypatch.setattr(voronoi, "_reduce_ints", logged)
    pair_bits = {}
    for d in [d for d in range(2, 1001) if is_squarefree(d)] + [1394942, 1000003]:
        seen.clear()
        result = walk_classes(FieldDesc(d))
        pair_bits[d] = max(c.pair[0] for c in result.classes).bit_length()
        assert max(seen).bit_length() <= 160, d
    assert max(b for d, b in pair_bits.items() if d <= 1000) == 203
    assert (pair_bits[1394942], pair_bits[1000003]) == (852, 1672)


@pytest.mark.parametrize("d", [1000003, 1394942, 10000019])
def test_walk_matches_the_hull_where_the_anchor_moves(monkeypatch, d):
    # every step leaves the ray (1, 0) of the frame of the class it leaves;
    # these fields have hundreds of classes with pairs of up to 1672 bits,
    # and every record must still be the hull's
    steps = _count_steps(monkeypatch)
    walk = walk_classes(FieldDesc(d))
    assert [(c.pair, c.mu, c.min_vectors) for c in walk.classes] == oracles.hull_records(d)
    assert len(steps) == walk.class_count - 1 >= 170


def test_an_anchor_moved_at_every_step_gives_the_same_records(monkeypatch):
    # every class found becomes the anchor, so each class is found from
    # the ray (1, 0) of its predecessor's frame and written back through
    # the frame and the gcd h; the records must be the hull's.  h > 1
    # where the label a*(x + y*sqrt(d)) is not primitive
    hs = Counter()
    move = voronoi._move_anchor

    def logged(*args):
        found, h, forms, frame = move(*args)
        hs[h] += 1
        return found, h, forms, frame

    monkeypatch.setattr(voronoi, "_move_anchor", logged)
    for d in range(2, 1001):
        if is_squarefree(d):
            walk = walk_classes(FieldDesc(d))
            assert [(c.pair, c.mu, c.min_vectors) for c in walk.classes] == oracles.hull_records(d), d
    assert sum(hs.values()) > 2000 and set(hs) - {1}


def test_every_step_leaves_the_reduced_frame_of_its_class(monkeypatch):
    # each class found gets its own frame: its reduced basis U, unimodular,
    # and the trace forms of its label c and of c*sqrt(d) written over U,
    # so the first form is reduced and (1, 0) is minimal on it.  The step
    # that leaves the class is handed exactly those forms
    frames, stepped = [], []
    move, step = voronoi._move_anchor, voronoi.neighbor_step

    def moved(*args):
        found, h, forms, frame = move(*args)
        frames.append((found.pair, forms, frame))
        return found, h, forms, frame

    def logged(field, vec, forms):
        stepped.append(forms)
        return step(field, vec, forms)

    monkeypatch.setattr(voronoi, "_move_anchor", moved)
    monkeypatch.setattr(voronoi, "neighbor_step", logged)
    for d in [d for d in range(2, 1001) if is_squarefree(d)] + [1394942]:
        frames.clear()
        stepped.clear()
        walk = walk_classes(FieldDesc(d))
        assert [pair for pair, _, _ in frames] == [c.pair for c in walk.classes], d
        assert stepped == [forms for _, forms, _ in frames[:-1]], d
        for (p, q), forms, frame in frames:
            u00, u01, u10, u11 = frame
            assert abs(u00 * u11 - u01 * u10) == 1, d
            G = traceform._in_basis(traceform._trace_form_ints(d, p, q), frame)
            H = traceform._in_basis(traceform._trace_form_ints(d, d * q, p), frame)
            assert forms == G + H, (d, p)
            A, B, C = G
            assert abs(B) <= A <= C, (d, p)


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
    assert [c.pair for c in walk.classes] == pairs
    assert walk.class_count == len(pairs)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 15, 79, 223])
def test_walk_invariants(d):
    field = FieldDesc(d)
    walk = walk_classes(field)
    assert slope_of(walk.classes[0]) > 0
    for i, cls in enumerate(walk.classes):
        assert len(cls.min_vectors) >= 4
        data = min_data(form(field, cls))
        assert data.mu == cls.mu
        assert coords(data.vectors) == cls.min_vectors
        if i:
            assert slope_of(cls) > slope_of(walk.classes[i - 1])
    # no class is counted twice
    for i, a in enumerate(walk.classes):
        for b in walk.classes[i + 1 :]:
            assert not classes_equal(form(field, a), form(field, b), walk.eps2)


# 20 seeded members of the benchmark's family grid, d up to 2*10^9
FAMILY_SAMPLE = sorted(
    p.d for p in random.Random(18).sample(generate_family(41, 40, 10**14).accepted, 20)
)
CLOSING_SAMPLE = [d for d in range(2, 200) if is_squarefree(d)] + [223, 1394942] + FAMILY_SAMPLE


def test_closing_sample_covers_both_bases_and_norm_signs():
    fields = [FieldDesc(d) for d in CLOSING_SAMPLE]
    assert {f.half_basis for f in fields} == {False, True}
    assert {fundamental_unit(f).norm_sign for f in fields} == {1, -1}


@pytest.mark.parametrize("d", CLOSING_SAMPLE)
def test_walk_period_closes(d):
    # the walk stops at the mirror eps^2*conj(first), a whole record built
    # by field arithmetic and a cold reduction; the step after that last
    # class still lands on the first vertex times eps^2
    field = FieldDesc(d)
    walk = walk_classes(field)
    last = walk.classes[-1]
    assert (last.pair, last.mu, last.min_vectors) == oracles.mirror_record(walk)
    nxt = oracles.step_from_pair(field, last.pair, rightward_vec(field, last))[0]
    assert nxt == primitive_normalize(form(field, walk.classes[0]) * walk.eps2)


def _count_steps(monkeypatch):
    """Wrap voronoi.neighbor_step; returns the list of each call's arguments."""
    steps = []
    step = voronoi.neighbor_step

    def counted(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(voronoi, "neighbor_step", counted)
    return steps


@pytest.mark.parametrize("d", [7, 223, 1007, FAMILY_SAMPLE[0]])
def test_walk_takes_one_step_per_class(monkeypatch, d):
    # _first_vertex finds the first class with no step; each step leaves a
    # class, and none the last class
    steps = _count_steps(monkeypatch)
    walk = walk_classes(FieldDesc(d))
    assert len(steps) == walk.class_count - 1


@pytest.mark.parametrize("d", [7, 223, 1007, 1394942])
def test_each_step_starts_from_the_basis_of_the_class_it_leaves(monkeypatch, d):
    # a step's first reduction starts from the identity, which in the frame
    # of the class it leaves is the reduced basis of the class's form:
    # reducing that form from it returns it unchanged, as any Gauss step
    # changes the basis.  Each later trial starts from the basis the
    # trial before it returned
    steps = _count_steps(monkeypatch)
    reductions = []
    reduce = voronoi._reduce_ints

    def logged(A, B, C, start=(1, 0, 0, 1)):
        triple, basis = reduce(A, B, C, start)
        reductions.append((len(steps), start, basis))
        return triple, basis

    monkeypatch.setattr(voronoi, "_reduce_ints", logged)
    walk = walk_classes(FieldDesc(d))
    assert len(steps) == walk.class_count - 1
    # _first_vertex's one reduction, from the identity, comes before any step
    assert reductions[0][:2] == (0, (1, 0, 0, 1))
    for (k, start, _), (j, _, before) in zip(reductions[1:], reductions):
        assert start == ((1, 0, 0, 1) if k != j else before), (d, k)
    for _, _, forms in steps:
        assert reduce(*forms[:3], (1, 0, 0, 1))[1] == (1, 0, 0, 1), d
    assert len({k for k, _, _ in reductions}) == walk.class_count


@pytest.mark.parametrize(
    "d,tag", [(2, "T1"), (3, "T2"), (5, "T3"), (10, "T1"), (21, "T4"), (26, "T1")]
)
def test_one_class_fields_are_their_own_mirror(monkeypatch, d, tag):
    # nK = 1: the mirror of the first class is the first class, and the
    # walk returns it with no step
    assert classify_T(d) == tag
    steps = _count_steps(monkeypatch)
    walk = walk_classes(FieldDesc(d))
    first = walk.classes[0]
    assert walk.class_count == 1 and steps == []
    assert (first.pair, first.mu, first.min_vectors) == oracles.mirror_record(walk)


@pytest.mark.parametrize("d", [7, 30])
def test_two_class_fields_step_once_onto_the_mirror(monkeypatch, d):
    # nK = 2: one step, from the first class, and it lands on the mirror
    steps = _count_steps(monkeypatch)
    walk = walk_classes(FieldDesc(d))
    assert walk.class_count == 2 and len(steps) == 1
    nxt = walk.classes[1]
    assert (nxt.pair, nxt.mu, nxt.min_vectors) == oracles.mirror_record(walk)


def _patch_mirror(monkeypatch, ray):
    """Make the walk's one _ray_times call, its mirror, return ray."""
    monkeypatch.setattr(voronoi, "_ray_times", lambda *args: ray)


@pytest.mark.parametrize("gap", [0, 1])
def test_step_past_the_mirror_is_an_invariant_error(monkeypatch, gap):
    # a mirror strictly between two vertices of d = 223, which no step can
    # land on: the first step past it must fail, not walk on to _WALK_CAP
    field = FieldDesc(223)
    walk = walk_classes(field)
    pairs = [c.pair for c in walk.classes]
    pairs.append(primitive_normalize(form(field, walk.classes[0]) * walk.eps2))
    (p0, q0), (p1, q1) = pairs[gap], pairs[gap + 1]
    _patch_mirror(monkeypatch, (p0 + p1, q0 + q1))
    steps = _count_steps(monkeypatch)
    with pytest.raises(InvariantError, match=rf"the step to \({p1}, {q1}\) passed the mirror"):
        walk_classes(field)
    assert len(steps) == gap + 1


def test_step_past_the_mirror_of_a_moved_anchor_is_an_invariant_error(monkeypatch):
    # d = 1394942 has moved its anchor to each class before its last, so
    # the step past a mirror between the last two is caught on the
    # mirror's ray in the last frame, which moves with the anchor.  A cap
    # of one class more than the period makes a missed check fail at once
    field = FieldDesc(1394942)
    walk = walk_classes(field)
    (p0, q0), (p1, q1) = (c.pair for c in walk.classes[-2:])
    _patch_mirror(monkeypatch, (p0 + p1, q0 + q1))
    monkeypatch.setattr(voronoi, "_WALK_CAP", walk.class_count + 1)
    steps = _count_steps(monkeypatch)
    with pytest.raises(InvariantError, match=rf"the step to \({p1}, {q1}\) passed the mirror"):
        walk_classes(field)
    assert len(steps) == walk.class_count - 1


def test_mirror_left_of_the_first_class_is_an_invariant_error(monkeypatch):
    # (1, 0) has slope 0, left of every first class: no step is taken
    _patch_mirror(monkeypatch, (1, 0))
    steps = _count_steps(monkeypatch)
    message = r"the mirror \(1, 0\) lies left of the first class \(2230, 149\)"
    with pytest.raises(InvariantError, match=message):
        walk_classes(FieldDesc(223))
    assert steps == []


@pytest.mark.parametrize("d", [7, 10, 79, 223])
def test_walk_respects_conjugation(d):
    # the envelope is conjugation-symmetric, so the class list must be too
    field = FieldDesc(d)
    walk = walk_classes(field)
    for cls in walk.classes:
        flipped = form(field, cls).conj()
        assert flipped.is_totally_positive()
        assert any(
            classes_equal(form(field, other), flipped, walk.eps2)
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
    eps2 = oracles.power(F7.element(8, 3), 2)
    assert _is_perfect(a1 * eps2)


def test_vertex_at():
    # the walk's vertex on the ray of 14 + 5*sqrt(7), and a ray that is no vertex
    F7 = FieldDesc(7)
    (v,) = [c for c in walk_classes(F7).classes if c.pair == (14, 5)]
    assert v.mu == 28
    assert v.min_vectors == coords(min_data(F7.element(14, 5)).vectors)
    assert not _is_perfect(F7.element(3, 1))  # minimum on a single line


def test_classes_equal():
    F7 = FieldDesc(7)
    eps2 = oracles.power(F7.element(8, 3), 2)
    a1 = F7.element(Fraction(1, 2), Fraction(5, 28))
    a2 = a1.conj()
    assert classes_equal(a1, a1, eps2)
    assert classes_equal(a1, a1 * eps2, eps2)
    assert classes_equal(a1 * oracles.power(eps2, 2), a1, eps2)
    assert not classes_equal(a1, a2, eps2)  # d = 7 has two classes
    with pytest.raises(QuadFieldError):
        classes_equal(F7.element(1, 1), a1, eps2)
    with pytest.raises(QuadFieldError):
        classes_equal(FieldDesc(2).one(), a1, eps2)  # another field


@pytest.mark.parametrize("d", [7, 13, 223])
@pytest.mark.parametrize("k", [-9, -4, 4, 9])
def test_classes_equal_far_powers(d, k):
    field = FieldDesc(d)
    walk = walk_classes(field)
    for cls in walk.classes:
        x = form(field, cls)
        assert classes_equal(x, x * oracles.power(walk.eps2, k), walk.eps2)
        assert classes_equal(x * oracles.power(walk.eps2, k), x, walk.eps2)
    if walk.class_count > 1:
        a, b = (form(field, c) for c in walk.classes[:2])
        assert not classes_equal(a, b * oracles.power(walk.eps2, k), walk.eps2)


def test_classes_equal_rejects_bad_eps2():
    F7 = FieldDesc(7)
    eps2 = oracles.power(F7.element(8, 3), 2)
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


def _no_field_arithmetic(*args):
    raise AssertionError("field-element arithmetic on the integer per-field path")


# 1007 and 1230323435 are the family members (m, k, delta) = (3, 2, +1)
# and (29, 39, +1)
@pytest.mark.parametrize("d", [7, 33, 94, 1007, 1230323435])
def test_per_field_path_runs_on_integers(d, monkeypatch):
    # the walk, the unit square, and the class lookup and minimum of every
    # class form and representative decide signs and integrality on ints
    field = FieldDesc(d)
    reps = []
    if not field.half_basis and nr_decompose(d)[1] not in (1, -1):
        reps = list(construct_a1_a2(field))
    for name in ("__mul__", "is_totally_positive", "is_integral"):
        monkeypatch.setattr(FieldElem, name, _no_field_arithmetic)
    walk = walk_classes(field)
    assert unit_square(walk.unit) == walk.eps2
    if reps and walk.unit.norm_sign == 1:
        reps.append(construct_a3(walk.unit))
    for j, cls in enumerate(walk.classes):
        x = form(field, cls)
        assert walk.class_index(x) == j
        assert traceform._min_coords(x) == (cls.mu, cls.min_vectors)
    found = [walk.class_index(x) for x in reps]
    for x in reps:
        traceform._min_coords(x)
    assert len(reps) == (0 if d == 33 else 3)
    # a1 and a2 are perfect wherever they exist; a3 too in the family
    assert None not in found[:2]
    if d in (1007, 1230323435):
        assert sorted(found) == [0, 1, 2]


def _positive_element(field, q, t, s, extra):
    """A totally positive a + (q/t)*sqrt(d), a of denominator s just above |b|*sqrt(d)."""
    b = Fraction(q, t)
    # (isqrt(X) + 1)^2 > X = d*q^2*s^2/t^2, so a^2 > d*b^2
    a = Fraction(isqrt(field.d * q * q * s * s // (t * t)) + 1 + extra, s)
    return field.element(a, b)


ELEMENT = st.tuples(
    st.integers(-40, 40), st.integers(1, 9), st.integers(1, 9), st.integers(0, 60)
)


@given(
    st.sampled_from([FieldDesc(d) for d in range(2, 200) if is_squarefree(d)]),
    ELEMENT,
    ELEMENT,
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.booleans(),
)
def test_classes_equal_matches_the_field_arithmetic_oracle(field, x, y, k, j, same):
    # for d = 1 (mod 4), eps2 often has half-integral coordinates
    eps2 = unit_square(fundamental_unit(field))
    x = _positive_element(field, *x)
    y = x * oracles.power(eps2, j) if same else _positive_element(field, *y)
    shifted = x * oracles.power(eps2, k)
    want = oracles.classes_equal(shifted, y, eps2)
    assert classes_equal(shifted, y, eps2) == want
    assert want or not same


@pytest.mark.parametrize("d", [d for d in range(2, 301) if is_squarefree(d)])
def test_class_index_finds_every_class_at_every_power(d):
    field = FieldDesc(d)
    walk = walk_classes(field)
    pairs = [c.pair for c in walk.classes] + [
        primitive_normalize(form(field, walk.classes[0]) * walk.eps2)
    ]
    for k in range(-3, 5):
        power = oracles.power(walk.eps2, k)
        for j, cls in enumerate(walk.classes):
            assert walk.class_index(form(field, cls) * power) == j
        # 1 is minimal on +-1 alone, and a mediant of two neighbouring
        # vertices lies strictly between them; neither is perfect
        assert walk.class_index(power) is None
        for (p0, q0), (p1, q1) in zip(pairs, pairs[1:]):
            assert walk.class_index(field.element(p0 + p1, q0 + q1) * power) is None


def test_class_index_rejects_bad_input():
    walk = walk_classes(FieldDesc(7))
    with pytest.raises(QuadFieldError):
        walk.class_index(FieldDesc(7).element(1, 1))  # not totally positive
    with pytest.raises(QuadFieldError):
        walk.class_index(FieldDesc(2).one())  # another field
