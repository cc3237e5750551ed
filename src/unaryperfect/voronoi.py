"""Neighbour walk through the perfect forms of a real quadratic field.

Totally positive rays are parametrised by the slope s of 1 + s*sqrt(d),
s in (-1/sqrt(d), 1/sqrt(d)).  Each integral vector y contributes the
support line s -> Tr(y^2) + s*Tr(sqrt(d)*y^2), kept as the int pair
(intercept, slope_coef), the values at y of the trace forms of 1 and
sqrt(d); the form's minimum mu(s) is the concave piecewise-linear lower
envelope of these lines.  Envelope vertices are exactly the perfect
rays.  Multiplication by the squared fundamental unit shifts slopes
strictly rightward and permutes vertices, so walking vertex to vertex
from the first vertex right of 1 up to that vertex times eps^2 lists
every class once; the vertex count of one period is the class count.

The walk ends at the mirror of its first class.  Conjugation fixes
traces, Tr(x'*y'^2) = Tr(x*y^2), so the form of slope -s takes at y'
the values that the form of slope s takes at y: the envelope is
symmetric under s -> -s, and conj maps vertices to vertices.  Slope 0,
the form 1, is no vertex: Tr(y^2) >= 2*|N(y)| >= 2 for integral y != 0,
with equality only where y = +-y' and |N(y)| = 1; y = -y' makes y an
integer times sqrt(d) and |N(y)| a multiple of d, so only y = +-1 reach
2, a single pair.  So conj(first) is the vertex just left of 0, and no
vertex lies strictly between it and first.  Multiplication by eps^2
maps vertices to vertices by an increasing slope map, so it carries
conj(first) to the vertex just left of T = first*eps^2: the mirror
eps^2*conj(first) is the period's last class, and first itself when
the field has one class.

The walk runs on ints throughout: a vertex is recorded as its ray label
(p, q), its minimum and its minimal vectors in basis coordinates, and
no field element is built per step.

The pairs grow to thousands of bits along a period, and over the trace
forms of 1 and sqrt(d) a step's trials would grow with them.  So each
step runs in the frame of the class it leaves, the anchor
c = c_p + c_q*sqrt(d), a primitive label.  With U the reduced basis of
c's form, the forms G = Tr(c*y^2) and H = Tr(c*sqrt(d)*y^2), written
over U, stand in for those of 1 and sqrt(d), and the ray (x, y) of the
frame is the class of c*(x + y*sqrt(d)), whose form over U is
x*G + y*H.  The step leaves
the frame's ray (1, 0), c itself, and meets the vertex that the step
in the standard basis meets: the rays right of c are
c*(1 + t*sqrt(d)), t > 0, since multiplying by the totally positive c
maps slopes by an increasing Moebius map, and so are the rays right of
(1, 0) in the frame.  Its rightward vector is the same in any frame
too: on the pencil of c, c*sqrt(d) = l*sqrt(d) + m*c with
l = N(c)/c_p > 0, and on c's minimal vectors Tr(c*y^2) is the minimum,
so adding a multiple of the current form leaves the order of the
minimal vectors' slope coefficients unchanged.

The class found at the frame's ray w = x + y*sqrt(d) has the label
(c_p*x + d*c_q*y, c_q*x + c_p*y)/h, h the gcd of those two parts; its
minimum is the reduced form's first coefficient over h, and its
minimal vectors are U*z for the vectors z found in the frame.  h
divides N(w): if it divides c*w it divides c*w*conj(w) = N(w)*c, and
c is primitive.  So h is the gcd of N(w) and the parts' remainders
modulo N(w).  The class then gives the next step its frame: U becomes
U*V, V its reduced basis in c's frame, and (G, H) becomes its reduced
form and d*y*G + x*H, the form of c*w*sqrt(d), written over V, both
over h.  The first class takes its frame the same way from the
standard one, that of c = 1, with U the identity and (G, H) the forms
of 1 and sqrt(d).  A frame's forms are those of a class label over its
reduced basis, of a size set by the label's norm and d, which
multiplication by eps^2 keeps, so a step's integers stay of a size set
by the field, wherever it lies in the period: no reduction input
passed 111 bits at d = 1394942, whose pairs reach 852.  The large
integers take only products with small ones, to write a class in the
standard basis, to move U and to check a step against the mirror: the
walk keeps mirror*conj(c), the mirror's ray in c's frame, and moving
to the class c*w/h multiplies it by conj(w)/h, exactly.

Nor does a step's count of rounds grow along the period: its opening
ceiling comes from a closed-form bound on the gap from 0 to
1/sqrt(d), and its Gauss reductions start warm, the first trial's from
the identity, the reduced basis of c's form in c's own frame, and each
later one from the reduced basis of the trial before it.

The first vertex is the first edge of a hull, found without a probe.
With p_k/q_k the convergents of omega = (t + sqrt(d))/g, the relative
minima from 1 on are y_0 = 1 and y_k = p_{k-1} - q_{k-1}*omega, k >= 1.
With x = g*p - t*q, (g*y_k)^2 = A_k + (D_k/d)*sqrt(d) for the point
(A_k, D_k) = (x^2 + d*q^2, -2*d*x*q), and the form a + b*sqrt(d) takes
2*(a*A + b*D)/g^2 at y: the minimal vectors at a ray are those whose
points minimise a*A + b*D, an edge of the lower hull.  The point of 1
is P_0 = (g^2, 0), and the envelope leaves (1, 0) along its line up to
the vertex where the line of the steepest point beyond P_0 crosses it:
the least slope D/(A - g^2), ties going to the farther point.  The
vertex's pair is the edge's normal (-D*, A* - g^2), made primitive.
That point is y_1 = a_0 - omega or y_2 = b_1*y_1 + 1, whichever has the
lesser slope, ties going to y_2: the hull vertex after any vertex y_k is
y_{k+1} or y_{k+2}, and y_0 = 1 is a vertex.  Write u_j = |y_j| and
v_j = y_j' > 0: u falls from u_0 = 1 and v rises from v_0 = 1, and for
j >= 1, u_{j+1} = u_{j-1} - b_j*u_j and v_{j+1} = b_j*v_j + v_{j-1},
with b_j >= 1 the quotients of omega after a_0.  The point is
(A, D) = (g^2/2)*(u^2 + v^2, -sqrt(d)*(v^2 - u^2)), and a + b*sqrt(d)
weighs u^2 and v^2 by (a +- b*sqrt(d))*g^2/2 > 0, so the lower hull is
the lower-left hull of the points (u_j^2, v_j^2): after y_k comes the
j > k that maximises rho_j = (u_k^2 - u_j^2)/(v_j^2 - v_k^2), ties
going to the larger j.  As v_{k+3} >= v_{k+2} + v_{k+1} >= 2*v_{k+1} + v_k,
every j >= k + 3 has rho_j < u_k^2/(v_{k+3}^2 - v_k^2)
<= u_k^2/(4*v_{k+1}*(v_{k+1} + v_k)).  If u_{k+1} <= u_k/2, then
rho_{k+1} >= (3/4)*u_k^2/(v_{k+1}^2 - v_k^2) beats that bound, since
3*(v_{k+1}^2 + v_{k+1}*v_k) > v_{k+1}^2 - v_k^2.  Otherwise b_{k+1} = 1,
as u_{k+2} = u_k - b_{k+1}*u_{k+1} > 0, so u_{k+2} = u_k - u_{k+1} < u_k/2
and v_{k+2} = v_{k+1} + v_k, and
rho_{k+2} > (3/4)*u_k^2/(v_{k+1}^2 + 2*v_{k+1}*v_k) beats it too, since
3*(v_{k+1}^2 + v_{k+1}*v_k) > v_{k+1}^2 + 2*v_{k+1}*v_k.  So consecutive
vertices lie at most two minima apart: no two consecutive minima are
off the hull, and a minimum is a vertex exactly when its point lies
strictly below the chord of its neighbours' points.  y_L, L the period
of omega, is a unit and a vertex like y_0, so ceil(L/2) <= nK <= L.
The argument holds on every prefix of the minima, so a monotone chain
over their points pops at most one per push.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .quadfield import FieldDesc, FieldElem, _omega, primitive_normalize
from .quadfield import InvariantError, QuadFieldError, SizeLimitError
from .traceform import _both_signs, _in_basis, _min_vectors_ints, _reduce_ints, _trace_form_ints
from .units import FundamentalUnit, fundamental_unit, unit_square

_TRIAL_CAP = 10**4
_WALK_CAP = 10**5


def _support_forms(d: int) -> tuple[int, int, int, int, int, int]:
    """The trace forms of 1 and sqrt(d), in one tuple; p + q*sqrt(d) has p, q times them."""
    return _trace_form_ints(d, 1, 0) + _trace_form_ints(d, 0, 1)


def _line_of_basis_vec(forms: tuple[int, ...], u: int, v: int) -> tuple[int, int]:
    """The two forms at y = u + v*omega: (Tr(y^2), Tr(sqrt(d)*y^2)) for _support_forms."""
    A0, B0, C0, A1, B1, C1 = forms
    uu, uv, vv = u * u, u * v, v * v
    return A0 * uu + B0 * uv + C0 * vv, A1 * uu + B1 * uv + C1 * vv


@dataclass(frozen=True, slots=True)
class PerfectForm:
    """An envelope vertex: the primitive integral form p + q*sqrt(d) at a perfect ray.

    pair is the coprime ray label (p, q), p > 0, and mu the form's
    minimum.  min_vectors lists the minimal vectors in basis coordinates
    (u, v) over {1, omega}, both signs, sorted.  field.element(*pair) is
    the form itself.
    """

    pair: tuple[int, int]
    mu: int
    min_vectors: tuple[tuple[int, int], ...]


def _below_boundary(d: int, denom: int) -> Fraction:
    """Largest fraction with the given denominator strictly below 1/sqrt(d)."""
    return Fraction(isqrt((denom * denom - 1) // d), denom)


def neighbor_step(
    field: FieldDesc, vec: tuple[int, int], forms: tuple[int, int, int, int, int, int]
) -> tuple[PerfectForm, tuple[int, int, int, int]]:
    """Next envelope vertex strictly right of the ray (1, 0) of a frame, and
    the reduced basis of its form.

    forms are the frame's two trace forms (G, H), whose lines the step
    compares, and the ray (x, y) of the frame is the form x*G + y*H
    (module docstring); _support_forms(d), those of 1 and sqrt(d), make
    the standard frame, whose (1, 0) is the ray of 1.  vec, the result's
    pair and its vectors are read in the frame's coordinates.

    vec is a primitive vector (u, v) whose support line, the active
    line, carries the envelope immediately right of (1, 0), slope 0: at
    a vertex, the minimal vector whose line has the smallest slope
    coefficient.  A trial slope is probed; while the active line is the
    unique minimum the trial pushes right (two thirds of the way to a
    rational ceiling just under 1/sqrt(d), tightened each round so any
    vertex is passed eventually), and once the active line stops being
    minimal the trial pulls back to its last crossing with a current
    minimal line.  Each pullback lands on or right of the sought vertex,
    so the trial meets it exactly, with the active line minimal alongside
    at least one other.  Distinct +-pairs of vectors never share a line,
    so that is when +-vec is among two or more minimal pairs, and lines
    are evaluated only for the pullback's crossings.  The vertex is built
    from that trial's integer data alone.

    The opening ceiling has denominator D = 4*4^j, with the least j that
    is sure to pass 0: 1/sqrt(d) exceeds 1/(2*(isqrt(d) + 1)), and a
    ceiling with denominator D lies within 1/D of 1/sqrt(d).  The first
    midpoint has a denominator dividing 2*D, and each push, to a ceiling
    with 4 times the denominator, raises that bound at most 12-fold: a
    trial's label stays near the size of the vertex it seeks.  The first
    trial's reduction starts from the identity, which in the walk's
    frames is the reduced basis of G, and each later one from the
    reduced basis of the trial before it, so a step costs the same few
    Gauss steps wherever it lies in the period.
    """
    d = field.d
    if gcd(*vec) != 1:
        raise QuadFieldError(f"{vec} is not a primitive vector")
    a_ic, a_sc = _line_of_basis_vec(forms, *vec)
    # 4*r is the least multiple of 4 above 2*(isqrt(d) + 1); 4^j >= r
    r = (isqrt(d) + 1) // 2 + 1
    denom = 4 << 2 * (((r - 1).bit_length() + 1) // 2)
    s_t = _below_boundary(d, denom) / 2
    basis = (1, 0, 0, 1)
    A0, B0, C0, A1, B1, C1 = forms
    for _ in range(_TRIAL_CAP):
        p_t, q_t = s_t.denominator, s_t.numerator
        triple, basis = _reduce_ints(
            p_t * A0 + q_t * A1, p_t * B0 + q_t * B1, p_t * C0 + q_t * C1, basis
        )
        mu, vecs = _min_vectors_ints(triple, basis)
        if vec in vecs or (-vec[0], -vec[1]) in vecs:
            if len(vecs) >= 2:
                return PerfectForm((p_t, q_t), mu, _both_signs(vecs)), basis
            denom *= 4
            s_t = s_t + (_below_boundary(d, denom) - s_t) * Fraction(2, 3)
            continue
        best: Fraction | None = None
        for y in vecs:
            ic, sc = _line_of_basis_vec(forms, *y)
            if sc == a_sc:
                continue
            cross = Fraction(a_ic - ic, sc - a_sc)
            if best is None or cross > best:
                best = cross
        if best is None or not 0 < best < s_t:
            raise QuadFieldError(f"vector {vec} does not carry the envelope")
        s_t = best
    raise InvariantError(f"no vertex within {_TRIAL_CAP} trials")


def _first_vertex(field: FieldDesc) -> tuple[PerfectForm, tuple[int, int, int, int]]:
    """The first envelope vertex right of (1, 0), and the reduced basis of its form.

    The edge from 1 ends at y_1 or y_2 (module docstring); one reduction of
    the pair's form must find 1 and that end minimal, or it is not the vertex.
    """
    d = field.d
    g, t, _ = _omega(d)
    gg, r = g * g, isqrt(d)
    a0 = (t + r) // g
    P = a0 * g - t  # the complete quotient after a0 is g*(P + sqrt(d))/(d - P^2)
    b1 = (P + r) // ((d - P * P) // g)
    x1, x2 = P, b1 * P + g  # x = g*p - t*q at y_1 = (a0, -1) and y_2 = (a0*b1 + 1, -b1)
    A1, D1, A2, D2 = x1 * x1 + d, -2 * d * x1, x2 * x2 + d * b1 * b1, -2 * d * x2 * b1
    second = D2 * (A1 - gg) <= D1 * (A2 - gg)  # slopes D/(A - g^2), ties to y_2
    A, D, y = (A2, D2, (a0 * b1 + 1, -b1)) if second else (A1, D1, (a0, -1))
    h = gcd(D, A - gg)
    pair = -D // h, (A - gg) // h
    triple, basis = _reduce_ints(*_trace_form_ints(d, *pair))
    mu, vecs = _min_vectors_ints(triple, basis)
    vecs = _both_signs(vecs)
    if (1, 0) not in vecs or y not in vecs:
        raise InvariantError(f"{pair} is not the vertex of 1 and {y}")
    return PerfectForm(pair, mu, vecs), basis


def _ray_times(d: int, ray: tuple[int, int], by: tuple[int, int]) -> tuple[int, int]:
    """The coprime label of the ray of (p + q*sqrt(d)) * (a + b*sqrt(d))."""
    (p, q), (a, b) = ray, by
    x, y = p * a + d * q * b, p * b + q * a
    g = gcd(x, y)
    return x // g, y // g


def _into_window(
    d: int, ray: tuple[int, int], lo: tuple[int, int], unit: tuple[int, int]
) -> tuple[int, int]:
    """The ray of ray * eps2^k, k an integer, that lies in [lo, lo*eps2).

    Rays are coprime labels (p, q), p > 0, of totally positive forms, and
    unit is the ray of a totally positive eps2 > 1 of norm 1.
    Multiplication by eps2 maps slopes q/p by a strictly increasing
    Moebius map, so that window holds exactly one ray of each class.  The
    ray steps there by the ray of eps2 or of its conjugate, and slopes
    compare by cross-multiplication, p being positive.
    """
    (lo_p, lo_q), (hi_p, hi_q) = lo, _ray_times(d, lo, unit)
    p, q = ray
    while q * lo_p < lo_q * p:
        p, q = _ray_times(d, (p, q), unit)
    inverse = unit[0], -unit[1]
    while q * hi_p >= hi_q * p:
        p, q = _ray_times(d, (p, q), inverse)
    return p, q


@dataclass(frozen=True, slots=True)
class WalkResult:
    field: FieldDesc
    classes: tuple[PerfectForm, ...]
    unit: FundamentalUnit
    eps2: FieldElem

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_index(self, x: FieldElem) -> int | None:
        """Index of the walked class that x spans, or None if x spans no class.

        x must be a totally positive form of this field (QuadFieldError
        otherwise).  The walked pairs are the rays of one period, in the
        window [classes[0], classes[0]*eps2); x's ray label is moved into
        that window and looked up among them, in integers.
        """
        if x.field != self.field:
            raise QuadFieldError("elements of different fields")
        lo, unit = self.classes[0].pair, primitive_normalize(self.eps2)
        ray = _into_window(self.field.d, primitive_normalize(x), lo, unit)
        for j, cls in enumerate(self.classes):
            if cls.pair == ray:
                return j
        return None


def _move_anchor(
    d: int,
    anchor: tuple[int, int],
    forms: tuple[int, int, int, int, int, int],
    frame: tuple[int, int, int, int],
    cls: PerfectForm,
    basis: tuple[int, int, int, int],
) -> tuple[PerfectForm, int, tuple[int, int, int, int, int, int], tuple[int, int, int, int]]:
    """The class anchor*(x + y*sqrt(d))/h found at the ray cls.pair = (x, y)
    of the anchor's frame, in the standard basis, then h and its own
    forms and frame.

    cls is the record that neighbor_step found over the anchor's forms,
    in the coordinates of frame, the anchor's reduced basis, and basis
    is the reduced basis of cls's form there.  h divides
    N(x + y*sqrt(d)), so the gcd runs on remainders of that small norm.
    The class's forms are those of x + y*sqrt(d) and d*y + x*sqrt(d)
    over the anchor's forms, written over basis and divided by h; its
    frame is the anchor's times basis.
    """
    (x, y), (a_p, a_q), (A0, B0, C0, A1, B1, C1) = cls.pair, anchor, forms
    n = x * x - d * y * y
    p, q = a_p * x + d * a_q * y, a_q * x + a_p * y
    h = gcd(n, p % n, q % n)
    (u00, u01, u10, u11), (v00, v01, v10, v11) = frame, basis
    vecs = tuple(sorted((u00 * s + u01 * t, u10 * s + u11 * t) for s, t in cls.min_vectors))
    G = _in_basis((x * A0 + y * A1, x * B0 + y * B1, x * C0 + y * C1), basis)
    H = _in_basis((d * y * A0 + x * A1, d * y * B0 + x * B1, d * y * C0 + x * C1), basis)
    frame = (
        u00 * v00 + u01 * v10,
        u00 * v01 + u01 * v11,
        u10 * v00 + u11 * v10,
        u10 * v01 + u11 * v11,
    )
    found = PerfectForm((p // h, q // h), cls.mu // h, vecs)
    return found, h, tuple(c // h for c in G + H), frame


def walk_classes(field: FieldDesc) -> WalkResult:
    """One perfect form per class modulo scaling and squared units.

    Starts at the first vertex right of the rational ray (1, 0), which
    _first_vertex reads off the first hull edge, at y_1 or y_2, with no
    step, and ends at its mirror, the ray of eps^2*conj(first), which
    the module docstring proves is the period's last class.  Each step runs in the
    frame of the class it leaves, as the module docstring sets out:
    _move_anchor writes the class the step before found in the standard
    basis and gives it its own frame, and neighbor_step leaves the
    frame's ray (1, 0) along the minimal vector whose line has the
    smallest slope coefficient, which carries the concave envelope just
    right of the class.  The first class takes its frame from the
    standard one.  The walk stops when the first class or a step lands
    on the mirror; a mirror left of the first class, a step past it or
    a step that fails is a bug, and the error names the class the step
    left.  Rays multiply as integer pairs and compare by
    cross-multiplication, so the walk does no field arithmetic per step.
    """
    d = field.d
    unit = fundamental_unit(field)
    eps2 = unit_square(unit)
    cls, basis = _first_vertex(field)
    p, q = cls.pair
    mirror = _ray_times(d, (p, -q), primitive_normalize(eps2))
    m_p, m_q = mirror
    if m_q * p < q * m_p:
        raise InvariantError(f"the mirror {mirror} lies left of the first class {(p, q)}")
    anchor, forms, frame = (1, 0), _support_forms(d), (1, 0, 0, 1)
    classes = []
    for _ in range(_WALK_CAP):
        # cls is found at the ray w = (x, y) of the anchor's frame, in which
        # (m_p, m_q) is mirror*conj(anchor), the mirror's ray
        x, y = cls.pair
        found, h, forms, frame = _move_anchor(d, anchor, forms, frame, cls, basis)
        if y * m_p > m_q * x:
            raise InvariantError(f"the step to {found.pair} passed the mirror {mirror}")
        classes.append(found)
        if found.pair == mirror:
            return WalkResult(field, tuple(classes), unit, eps2)
        # the class found, anchor*w/h, is the anchor now: the mirror's ray
        # takes conj(w)/h, exactly
        m_p, m_q = (m_p * x - d * m_q * y) // h, (m_q * x - m_p * y) // h
        anchor = found.pair
        vecs = _both_signs(_min_vectors_ints(forms[:3], (1, 0, 0, 1))[1])
        vec = min(vecs, key=lambda z: _line_of_basis_vec(forms, *z)[1])
        try:
            cls, basis = neighbor_step(field, vec, forms)
        except (QuadFieldError, InvariantError) as err:
            raise InvariantError(f"{err} right of {anchor}") from err
    raise SizeLimitError(f"period did not close within {_WALK_CAP} vertices")


def classes_equal(x: FieldElem, y: FieldElem, eps2: FieldElem) -> bool:
    """Whether x and y span the same ray modulo powers of eps2.

    Every class has exactly one ray in the window [y, y*eps2), so the
    classes agree exactly when x's ray, moved into that window, is y's.
    x and y must be totally positive: primitive_normalize raises
    QuadFieldError for either otherwise.
    """
    # without a norm-1 unit > 1 the steps below need not end
    if not (
        eps2.is_integral()
        and eps2.is_totally_positive()
        and eps2.norm() == 1
        and eps2.b > 0
    ):
        raise QuadFieldError(f"{eps2} is not a totally positive unit > 1")
    if not x.field == y.field == eps2.field:
        raise QuadFieldError("elements of different fields")
    lo = primitive_normalize(y)
    ray = _into_window(x.field.d, primitive_normalize(x), lo, primitive_normalize(eps2))
    return ray == lo
