"""Independent checks of the program's outputs.

Every check here recomputes what it needs with its own integer
arithmetic, or tests a property the method must have.  None compares
against a stored copy of an earlier output.  Each returns a list of
problems; an empty list means the output passed.

Units are handled as (alpha, beta, norm) with alpha and beta exact
Fractions: the unit is alpha + beta*sqrt(d).
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from math import gcd, isqrt

CSV_HEADER = ["d", "nK", "tag", "alpha", "beta", "norm", "predicted_nK", "agree"]


# -- arithmetic the checks share -------------------------------------------


def near_square_shape(d: int) -> str | None:
    """The shape of d that forces one class, found by trying each n.

    d = n^2 + 1 (n odd), n^2 - 1 (n even), n^2 + 4 (n odd) or
    n^2 - 4 (n odd, n > 3).
    """
    n = isqrt(d)
    for m in (n - 1, n, n + 1, n + 2):
        if m < 1:
            continue
        sq = m * m
        if d == sq + 1 and m % 2 == 1:
            return "T1"
        if d == sq - 1 and m % 2 == 0:
            return "T2"
        if d == sq + 4 and m % 2 == 1:
            return "T3"
        if d == sq - 4 and m % 2 == 1 and m > 3:
            return "T4"
    return None


def reduced_surd(d: int) -> tuple[int, int]:
    """(P, Q) of the reduced surd (P + sqrt(d))/Q that generates the maximal order.

    Q = 1 and P = isqrt(d) for d = 2, 3 (mod 4); Q = 2 and P the largest
    odd integer below sqrt(d) for d = 1 (mod 4).  Either surd exceeds 1
    and its conjugate lies in (-1, 0), so its expansion is purely periodic.
    """
    s = isqrt(d)
    if d % 4 == 1:
        return (s if s % 2 else s - 1), 2
    return s, 1


def cf_unit(d: int) -> tuple[tuple[Fraction, Fraction, int], int]:
    """Fundamental unit of the maximal order and the period it took.

    For the purely periodic surd theta of period L, theta is fixed by the
    matrix of its convergents, and q_{L-1}*theta + q_{L-2} is the
    fundamental unit, of norm (-1)^L.  Only the q's are kept.
    """
    s = isqrt(d)
    P0, Q0 = reduced_surd(d)
    P, Q = P0, Q0
    q_prev, q = 1, 0  # q_{-2}, q_{-1}
    length = 0
    while True:
        a = (P + s) // Q
        q_prev, q = q, a * q + q_prev
        P = a * Q - P
        Q = (d - P * P) // Q
        length += 1
        if (P, Q) == (P0, Q0):
            break
    # after the loop q = q_{L-1} and q_prev = q_{L-2}
    alpha = Fraction(q * P0, Q0) + q_prev
    beta = Fraction(q, Q0)
    return (alpha, beta, -1 if length % 2 else 1), length


def cf_period(d: int) -> int:
    """Period of the reduced surd's expansion, without convergents."""
    s = isqrt(d)
    P0, Q0 = reduced_surd(d)
    P, Q = P0, Q0
    length = 0
    while True:
        a = (P + s) // Q
        P = a * Q - P
        Q = (d - P * P) // Q
        length += 1
        if (P, Q) == (P0, Q0):
            return length


def smallest_unit_search(d: int, y_max: int) -> tuple[Fraction, Fraction, int] | None:
    """Smallest unit > 1 found by trying every y = 1, 2, ... up to y_max.

    Units are (x + y*sqrt(d))/2 with x^2 - d*y^2 = +-4 and x = y (mod 2)
    when d = 1 (mod 4), and x + y*sqrt(d) with x^2 - d*y^2 = +-1 otherwise.
    The first y with a solution gives the smallest unit; -1 is tried
    first because its x is the smaller.  None if no y up to y_max works.
    """
    half = d % 4 == 1
    k = 4 if half else 1
    for y in range(1, y_max + 1):
        t = d * y * y
        for norm in (-1, 1):
            x2 = t + norm * k
            if x2 <= 0:
                continue
            x = isqrt(x2)
            if x * x != x2:
                continue
            if half:
                if (x - y) % 2:
                    continue
                return Fraction(x, 2), Fraction(y, 2), norm
            return Fraction(x), Fraction(y), norm
    return None


def unit_problems(d: int, alpha: Fraction, beta: Fraction, norm: int) -> list[str]:
    """alpha + beta*sqrt(d) is an integral unit > 1 of the stated norm."""
    out = []
    if norm not in (1, -1):
        out.append(f"d={d}: norm sign {norm} is not +-1")
    if alpha * alpha - d * beta * beta != norm:
        out.append(f"d={d}: alpha^2 - d*beta^2 != {norm}")
    ta, tb = 2 * alpha, 2 * beta
    if d % 4 == 1:
        integral = (
            ta.denominator == 1
            and tb.denominator == 1
            and (ta.numerator - tb.numerator) % 2 == 0
        )
    else:
        integral = alpha.denominator == 1 and beta.denominator == 1
    if not integral:
        out.append(f"d={d}: unit {alpha} + {beta}*sqrt(d) is not integral")
    # a unit > 1 has both coordinates positive: eps > 1 > |eps'|
    if not (alpha > 0 and beta > 0):
        out.append(f"d={d}: unit {alpha} + {beta}*sqrt(d) is not > 1")
    return out


def expected_tag(d: int, alpha: Fraction, beta: Fraction) -> tuple[str, int | None]:
    """The tag the paper's rules give for d and its fundamental unit.

    Near-square shapes first.  Then, for d = 2, 3 (mod 4) with d = n^2 + r,
    -n < r <= n and r != +-1: beta = m(m+2), m odd >= 3, and alpha = +-1
    (mod beta^2) gives RD2; alpha = +-((m-1)/2*(m+2)^2 + 1) gives FAM3.
    Returns the tag and the predicted class count.
    """
    shape = near_square_shape(d)
    if shape is not None:
        return shape, 1
    if d % 4 == 1 or alpha.denominator != 1 or beta.denominator != 1:
        return "UNCLASSIFIED", None
    a, b = int(alpha), int(beta)
    # m odd >= 3 with m(m+2) = b means b + 1 = (m+1)^2, (m+1) even >= 4
    m = isqrt(b + 1) - 1
    if m < 3 or m % 2 == 0 or m * (m + 2) != b:
        return "UNCLASSIFIED", None
    n = isqrt(d)
    if d - n * n > n:
        n += 1
    if d - n * n in (1, -1):
        return "UNCLASSIFIED", None
    bb = b * b
    if a % bb in (1, bb - 1):
        return "RD2", 2
    c = (m - 1) // 2 * (m + 2) ** 2 + 1
    if a % bb in (c % bb, -c % bb):
        return "FAM3", 3
    return "UNCLASSIFIED", None


def trace_value(d: int, p: int, q: int, u: int, v: int) -> Fraction:
    """Tr(x * y^2) for x = p + q*sqrt(d) and y = u + v*omega."""
    if d % 4 == 1:
        # y = (a + b*sqrt(d))/2 with a = 2u + v, b = v
        a, b = 2 * u + v, v
        return Fraction(p * (a * a + d * b * b) + 2 * d * q * a * b, 2)
    return Fraction(2 * (p * (u * u + d * v * v) + 2 * d * q * u * v))


def form_minimum(d: int, p: int, q: int) -> tuple[int, int]:
    """Minimum of y -> Tr(x * y^2), x = p + q*sqrt(d), and its number of +-pairs.

    The form is Lagrange-Gauss reduced here, with floor division and
    swaps, so |B| <= A <= C; a reduced form takes its minimum A only on
    +-(1, 0), +-(0, 1), +-(1, 1) and +-(1, -1), which are then counted.
    """
    A = int(trace_value(d, p, q, 1, 0))
    C = int(trace_value(d, p, q, 0, 1))
    B = int(trace_value(d, p, q, 1, 1)) - A - C
    while True:
        if A > C:
            A, C = C, A
        # shift v -> v - t*u to bring B into [-A, A]
        t = (B + A) // (2 * A)
        if t == 0:
            if A <= C:
                break
            continue
        B, C = B - 2 * A * t, C - B * t + A * t * t
    pairs = sum(value == A for value in (A, C, A + B + C, A - B + C))
    return A, pairs


# -- output checks ---------------------------------------------------------


def parse_scan_csv(text: str) -> tuple[list[dict], list[str]]:
    """Rows of a scan's CSV, parsed here rather than by the program."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        return [], ["CSV header missing or wrong"]
    out, problems = [], []
    for row in rows[1:]:
        if len(row) != len(CSV_HEADER):
            problems.append(f"CSV row has {len(row)} fields: {row}")
            continue
        d, nk, tag, alpha, beta, norm, predicted, agree = row
        out.append(
            {
                "d": int(d),
                "nK": int(nk),
                "tag": tag,
                "alpha": Fraction(alpha),
                "beta": Fraction(beta),
                "norm": int(norm),
                "predicted": int(predicted) if predicted else None,
                "agree": agree,
            }
        )
    return out, problems


def scan_row_problems(row: dict) -> list[str]:
    """Unit, one-class shape, tag and prediction of one scan row."""
    d = row["d"]
    out = unit_problems(d, row["alpha"], row["beta"], row["norm"])
    shape = near_square_shape(d)
    if (row["nK"] == 1) != (shape is not None):
        out.append(f"d={d}: {row['nK']} classes but near-square shape {shape}")
    tag, predicted = expected_tag(d, row["alpha"], row["beta"])
    if row["tag"] != tag:
        out.append(f"d={d}: tag {row['tag']}, expected {tag}")
    if row["predicted"] != predicted:
        out.append(f"d={d}: predicted {row['predicted']}, expected {predicted}")
    if predicted is None:
        if row["agree"] != "":
            out.append(f"d={d}: agree={row['agree']!r} without a prediction")
    elif row["nK"] != predicted or row["agree"] != "true":
        out.append(f"d={d}: {tag} predicts {predicted} classes, got {row['nK']}")
    return out


def scan_csv_problems(text: str, ds: list[int]) -> list[str]:
    """A scan's CSV covers exactly ds, in order, and every row checks out."""
    rows, problems = parse_scan_csv(text)
    got = [r["d"] for r in rows]
    if got != list(ds):
        problems.append(f"CSV covers {len(got)} fields, expected {len(ds)}")
    for row in rows:
        problems.extend(scan_row_problems(row))
    return problems


def class_problems(d: int, n_classes: int, classes) -> list[str]:
    """Each class's vectors attain its minimum and form >= 2 +-pairs.

    classes holds (pair, mu, min_vectors) triples as a scan record lists
    them; vectors are basis coordinates over {1, omega}.
    """
    out = []
    if len(classes) != n_classes:
        out.append(f"d={d}: {len(classes)} classes listed, count {n_classes}")
    for (p, q), mu, vecs in classes:
        if p <= 0 or gcd(p, q) != 1:
            out.append(f"d={d}: pair ({p}, {q}) is not primitive")
            continue
        if p * p <= d * q * q:
            out.append(f"d={d}: pair ({p}, {q}) is not totally positive")
            continue
        vset = set(vecs)
        if len(vset) < 4 or any((-u, -v) not in vset for u, v in vset):
            out.append(f"d={d}: pair ({p}, {q}) has {len(vset)} vectors, not >= 2 +-pairs")
        for u, v in vset:
            if trace_value(d, p, q, u, v) != mu:
                out.append(f"d={d}: vector ({u}, {v}) misses minimum {mu} of ({p}, {q})")
                break
        least, pairs = form_minimum(d, p, q)
        if (least, 2 * pairs) != (mu, len(vset)):
            out.append(f"d={d}: ({p}, {q}) has minimum {least} on {pairs} +-pairs, listed {mu} on {len(vset)} vectors")
    return out


def unit_matches(d: int, unit: tuple[Fraction, Fraction, int]) -> list[str]:
    """The unit equals the one this module's own continued fraction gives."""
    want, _ = cf_unit(d)
    if tuple(unit) != want:
        return [f"d={d}: unit {unit[0]} + {unit[1]}*sqrt(d) is not fundamental"]
    return []


def search_matches(d: int, unit: tuple[Fraction, Fraction, int], y_max: int) -> list[str]:
    """The unit equals the smallest one a direct search over y finds."""
    found = smallest_unit_search(d, y_max)
    if found is None:
        return [f"d={d}: no unit with y <= {y_max}, yet beta = {unit[1]}"]
    if tuple(unit) != found:
        return [f"d={d}: unit {unit[0]} + {unit[1]}*sqrt(d), search found {found}"]
    return []


def family_member(m: int, k: int, delta: int) -> tuple[int, int, int, int]:
    """(d, alpha, beta, mu(a3)) of the (m, k, delta) family member.

    beta = m(m+2), l = k*beta + delta*(m+1)/2, d = l^2 - 2*delta*k*(m+1) - 1,
    alpha = k*beta^2 + delta*((m-1)/2*(m+2)^2 + 1), and the unit form's
    minimum is 2*(k*((m+1)^2 + 1) + delta*(m+1)/2).
    """
    beta = m * (m + 2)
    half = (m + 1) // 2
    l = k * beta + delta * half
    d = l * l - 2 * delta * k * (m + 1) - 1
    alpha = k * beta * beta + delta * ((m - 1) // 2 * (m + 2) ** 2 + 1)
    mu = 2 * (k * ((m + 1) ** 2 + 1) + delta * half)
    return d, alpha, beta, mu


def family_candidate_count(m_max: int, k_max: int) -> int:
    """Candidates over odd m in [3, m_max], k in [0, k_max], delta = +-1, (0, -1) left out."""
    ms = len(range(3, m_max + 1, 2))
    return ms * (2 * (k_max + 1) - 1)


def family_report_problems(lines: list[str], m_max: int, k_max: int) -> tuple[list[str], list[tuple]]:
    """verify-family's report: candidate count, every member ok, closed forms hold.

    Returns the problems and the members as (d, m, k, delta, alpha, beta).
    """
    problems, members = [], []
    if not lines or not lines[0].startswith("candidates: "):
        return ["report has no candidates line"], members
    head = lines[0].split(",")
    candidates = int(head[0].split(":")[1])
    accepted = int(head[1].split(":")[1])
    if candidates != family_candidate_count(m_max, k_max):
        problems.append(f"{candidates} candidates, expected {family_candidate_count(m_max, k_max)}")
    body = lines[1:-1]
    if lines[-1] != f"all {accepted} family members verified":
        problems.append(f"last line is {lines[-1]!r}")
    if len(body) != accepted:
        problems.append(f"{len(body)} member lines for {accepted} accepted")
    for line in body:
        # d=1007 (m=3, k=2, delta=+1): ok  [classes=3, mu(a3)=72]
        try:
            spot, verdict = line.split(": ", 1)
            d = int(spot.split()[0][2:])
            m, k, delta = (int(x.split("=")[1]) for x in spot[spot.index("(") + 1 : -1].split(", "))
            mu = int(verdict.rsplit("=", 1)[1].rstrip("]"))
        except (ValueError, IndexError):
            problems.append(f"unreadable member line {line!r}")
            continue
        if not verdict.startswith("ok "):
            problems.append(f"member not ok: {line}")
        want_d, alpha, beta, want_mu = family_member(m, k, delta)
        if d != want_d:
            problems.append(f"(m={m}, k={k}, delta={delta}) gives d={want_d}, reported {d}")
        if alpha * alpha - d * beta * beta != 1:
            problems.append(f"d={d}: Pell identity fails for the family unit")
        if mu != want_mu:
            problems.append(f"d={d}: mu(a3) {mu}, closed form gives {want_mu}")
        if near_square_shape(d) is not None or d % 4 == 1:
            problems.append(f"d={d}: member outside the family's hypotheses")
        members.append((d, m, k, delta, Fraction(alpha), Fraction(beta)))
    if len({m[0] for m in members}) != len(members):
        problems.append("a member d is reported twice")
    return problems, members
