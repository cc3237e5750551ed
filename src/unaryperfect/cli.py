"""Command line front end: field reports, range scans, family checks.

Exit codes: 0 success; 1 a checked prediction failed; 2 bad usage or
input, checked where it enters, an --out that cannot be written
(checked before the first field, and met again by the final write), or
a size limit (a SizeLimitError from the unit loop's fold cap, the
walk's class cap or the oracle's box, or a MemoryError); 3 any
other exception, which after those checks is a bug, reported with its
type and traceback; 141 stdout was closed by its reader (128 + SIGPIPE,
as a shell reports a filter killed by that signal).
Scan output is deterministic: records are emitted in ascending d and
all vector lists are sorted, so reruns and different worker counts
produce identical bytes.  A scan renders each record into its CSV row
or JSON item in the process that built it, and drops it there: one
process holds one record at a time, and only rows cross the pool and
reach the parent, which joins them in ascending d.  At d <= 1000 a CSV
row pickles to about 60 bytes, a record to about 860 and a JSON item to
about 3.7 KB; near d = 10^5 a row is about 160 bytes and a record about
100 KB, and JSON text is about as large as its records.  The pool has
at most one worker per CPU this process may run on.  A pool chunk is
at most 16 fields, and a finished chunk's rows wait in the parent only
while an earlier chunk is unfinished; Executor.map submits every chunk
at once, so that wait has no fixed bound, and the measured one is CI's
check that scan 2 3000 peaks below 28 MB as CSV and below 60 MB as JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress
from math import isqrt
from pathlib import Path

from .family import (
    DClass,
    _predicted_coords,
    classify,
    construct_a1_a2,
    construct_a3,
    generate_family,
    predicted_a3_minimum,
)
from .quadfield import FieldDesc, QuadFieldError, SizeLimitError, fraction_str
from .traceform import _min_coords, brute_force_min
from .voronoi import PerfectForm, walk_classes

CSV_COLUMNS = ("d", "nK", "tag", "alpha", "beta", "norm", "predicted_nK", "agree")


def squarefree_sieve(lo: int, hi: int) -> list[int]:
    """Squarefree integers in [lo, hi], by striking multiples of squares."""
    if lo < 2 or hi < lo:
        raise QuadFieldError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    n = hi - lo + 1
    # a failed bytearray repeat leaves CPython printing a SystemError before
    # the MemoryError; a failed bytes repeat raises the MemoryError alone
    flags = bytearray(b"\x01" * n)
    for p in range(2, isqrt(hi) + 1):
        sq = p * p
        first = -lo % sq  # offset of the least multiple of sq that is >= lo
        if first < n:
            flags[first::sq] = bytes((n - 1 - first) // sq + 1)
    return list(compress(range(lo, hi + 1), flags))


@dataclass(frozen=True, slots=True)
class ScanRecord:
    d: int
    n_classes: int
    dclass: DClass
    unit_alpha: Fraction
    unit_beta: Fraction
    norm_sign: int
    classes: tuple[PerfectForm, ...]
    predicted: int | None
    agree: bool | None


def build_record(d: int) -> ScanRecord:
    field = FieldDesc(d)
    result = walk_classes(field)
    unit = result.unit
    dclass = classify(field, unit)
    predicted = dclass.predicted_class_count
    return ScanRecord(
        d=d,
        n_classes=result.class_count,
        dclass=dclass,
        unit_alpha=unit.value.a,
        unit_beta=unit.value.b,
        norm_sign=unit.norm_sign,
        classes=result.classes,
        predicted=predicted,
        agree=None if predicted is None else predicted == result.class_count,
    )


# -- serialization ---------------------------------------------------------


def _opt_str(value) -> str:
    return "" if value is None else str(value).lower()


def _csv_row(r: ScanRecord) -> list:
    """The CSV cells of one record."""
    return [
        r.d,
        r.n_classes,
        r.dclass.tag,
        fraction_str(r.unit_alpha),
        fraction_str(r.unit_beta),
        r.norm_sign,
        "" if r.predicted is None else r.predicted,
        _opt_str(r.agree),
    ]


def _csv_line(cells) -> str:
    """One line of CSV text, as csv.writer quotes it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _join_csv(rows: Iterable[str]) -> str:
    """The header and the row lines, each taken from the iterable as it comes."""
    buf = io.StringIO()
    buf.write(_csv_line(CSV_COLUMNS))
    buf.writelines(rows)
    return buf.getvalue()


def render_csv(records: Iterable[ScanRecord]) -> str:
    """CSV text of the records, each rendered as it is taken from the iterable."""
    return _join_csv(_csv_line(_csv_row(r)) for r in records)


def record_to_dict(r: ScanRecord) -> dict:
    return {
        "d": r.d,
        "nK": r.n_classes,
        "tag": r.dclass.tag,
        "m": r.dclass.m,
        "k": r.dclass.k,
        "delta": r.dclass.delta,
        "alpha": fraction_str(r.unit_alpha),
        "beta": fraction_str(r.unit_beta),
        "norm": r.norm_sign,
        "predicted_nK": r.predicted,
        "agree": r.agree,
        "classes": [
            {
                "pair": list(c.pair),
                "mu": c.mu,
                "min_vectors": [list(v) for v in c.min_vectors],
            }
            for c in r.classes
        ],
    }


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), with ints past int's str() digit limit.

    Class pairs, minima and vectors are ints that json would convert with
    that limit; they go through fraction_str instead.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{inner}{json.dumps(k)}: {_json_text(v, inner)}" for k, v in value.items()]
    elif isinstance(value, list):
        brackets = "[]"
        items = [inner + _json_text(v, inner) for v in value]
    elif isinstance(value, int) and not isinstance(value, bool):
        return fraction_str(value)
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{indent}{brackets[1]}"


def _json_item(r: ScanRecord) -> str:
    """One record as an item of render_json's list, indented to sit in it."""
    return _json_text(record_to_dict(r), "  ")


def _join_json(items: Iterable[str]) -> str:
    """The JSON list of the rendered items."""
    body = ",\n  ".join(items)
    return f"[\n  {body}\n]\n" if body else "[]\n"


def render_json(records: Iterable[ScanRecord]) -> str:
    """_json_text of the list of record dicts, each rendered as it is taken from the iterable."""
    return _join_json(map(_json_item, records))


# -- commands --------------------------------------------------------------


def _render_pm_vectors(cls: PerfectForm, field: FieldDesc) -> str:
    reps = sorted({max(c, (-c[0], -c[1])) for c in cls.min_vectors})
    return ", ".join(f"+-({field.from_basis_coords(u, v)})" for u, v in reps)


def _print_record(record: ScanRecord) -> None:
    field = FieldDesc(record.d)
    sign = "+1" if record.norm_sign == 1 else "-1"
    print(f"d = {record.d}  ({field.basis_kind} basis)")
    print(
        f"fundamental unit: {field.element(record.unit_alpha, record.unit_beta)}"
        f"  (norm {sign})"
    )
    print(f"classes: {record.n_classes}")
    for i, c in enumerate(record.classes, 1):
        p, q = c.pair
        print(
            f"  class {i}: pair ({fraction_str(p)}, {fraction_str(q)}), "
            f"slope {fraction_str(Fraction(q, p))}, minimum {fraction_str(c.mu)}, "
            f"vectors {_render_pm_vectors(c, field)}"
        )
    params = ""
    if record.dclass.m is not None:
        params = f" (m={record.dclass.m}"
        if record.dclass.k is not None:
            params += f", k={record.dclass.k}, delta={record.dclass.delta:+d}"
        params += ")"
    print(f"tag: {record.dclass.tag}{params}")
    if record.predicted is None:
        print("predicted classes: none")
    else:
        verdict = "agree" if record.agree else "DISAGREE"
        print(f"predicted classes: {record.predicted}  [{verdict}]")


def _write_stdout(text: str) -> None:
    """Write text to stdout in full.

    Unbuffered stdout (python -u, PYTHONUNBUFFERED) hands a write to the
    raw file, which takes only part of it if the reader leaves midway,
    and TextIOWrapper drops the rest unreported.  Writing the rest until
    every byte is out reaches the BrokenPipeError instead.
    """
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text-only stand-in such as io.StringIO takes it whole
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[out.write(data) :]


def cmd_analyze(args) -> int:
    record = build_record(args.d)
    if args.json:
        _write_stdout(_json_text(record_to_dict(record)) + "\n")
    else:
        _print_record(record)
    return 1 if record.agree is False else 0


def _scan_row(fmt: str, d: int) -> tuple[int, int, bool | None, str]:
    """One field of a scan: (d, class count, agreement, its CSV row or JSON item).

    The record is rendered where it was built, so a pool worker sends
    back its text, not its record.  The pool pickles this function by
    reference, and it looks up build_record, _csv_row and _json_item
    when called, so a rebound one (the benchmark's per-field timer) is
    never pickled, which a rebound closure cannot be.
    """
    r = build_record(d)
    text = _csv_line(_csv_row(r)) if fmt == "csv" else _json_item(r)
    return r.d, r.n_classes, r.agree, text


def _bad_input(message: str) -> int:
    """Report input that argparse cannot check alone; exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _unwritable(path: str) -> str | None:
    """Why --out cannot be written, found without creating or truncating it; None if it can.

    An empty path, as an unset shell variable gives, names no file.  A
    path that exists must be a writable file or device (/dev/stdout is
    one, in a directory a user cannot write); a new file needs a
    writable directory.
    """
    if not path:
        return "cannot write --out '': the path is empty"
    target = Path(path)
    if target.is_dir():
        return f"cannot write --out {path}: it is a directory"
    if target.exists():
        ok = os.access(target, os.W_OK)
    elif target.parent.is_dir():
        ok = os.access(target.parent, os.W_OK | os.X_OK)
    else:
        return f"cannot write --out {path}: no directory {target.parent}"
    return None if ok else f"cannot write --out {path}: permission denied"


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tally(rows: Iterable[tuple], counts: Counter, bad: list[int]):
    """Pass each _scan_row result's text through, counting its classes and noting a d that disagrees."""
    for d, n_classes, agree, text in rows:
        counts[n_classes] += 1
        if agree is False:
            bad.append(d)
        yield text


def cmd_scan(args) -> int:
    if args.hi < args.lo:
        return _bad_input(f"need lo <= hi, got [{args.lo}, {args.hi}]")
    if args.out is not None and (problem := _unwritable(args.out)):
        return _bad_input(problem)
    ds = [d for d in squarefree_sieve(args.lo, args.hi) if d % 4 in args.mod4]
    # the pool forks all its workers up front, so never ask for more than can run
    workers = min(args.jobs, len(ds), _usable_cpus())
    row = partial(_scan_row, args.format)
    join = _join_csv if args.format == "csv" else _join_json
    counts: Counter = Counter()
    bad: list[int] = []
    # each record is rendered and dropped where it was built; the rows
    # arrive here in ascending d, and only their text is kept
    if workers > 1:
        # imported here: multiprocessing costs every other command about 2.5 MB
        from concurrent.futures import ProcessPoolExecutor

        # a worker holds one chunk of rows, and small chunks leave no
        # worker idle while another finishes a long last one
        chunk = max(1, min(16, len(ds) // (4 * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            text = join(_tally(pool.map(row, ds, chunksize=chunk), counts, bad))
    else:
        text = join(_tally(map(row, ds), counts, bad))
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        _write_stdout(text)
    print(
        f"scanned {len(ds)} fields; class counts: {dict(sorted(counts.items()))}; "
        f"disagreements: {len(bad)}",
        file=sys.stderr,
    )
    for d in bad:
        print(f"prediction failed at d = {d}", file=sys.stderr)
    return 1 if bad else 0


def cmd_verify_family(args) -> int:
    scan = generate_family(args.m_max, args.k_max, args.d_cap)
    reasons = Counter(reason for _, reason in scan.rejected)
    print(
        f"candidates: {len(scan.accepted) + len(scan.rejected)}, "
        f"accepted: {len(scan.accepted)}, rejected: {dict(sorted(reasons.items()))}"
    )
    if not scan.accepted:
        print("no verified family members in range; vacuously passed")
        return 0
    failures = 0
    for params in scan.accepted:
        field = FieldDesc(params.d)
        result = walk_classes(field)
        unit = result.unit
        a1, a2 = construct_a1_a2(field)
        a3 = construct_a3(unit)
        reps = {"a1": a1, "a2": a2, "a3": a3}
        problems = []
        if result.class_count != 3:
            problems.append(f"class count {result.class_count} != 3")
        else:
            matches = []
            for name, rep in reps.items():
                j = result.class_index(rep)
                if j is None:
                    problems.append(f"{name} matched walk classes []")
                else:
                    matches.append(j)
            if len(set(matches)) != len(matches):
                problems.append(f"representatives collided on classes {matches}")
        mins = {name: _min_coords(rep) for name, rep in reps.items()}
        mu3, vecs3 = mins["a3"]
        want_mu = predicted_a3_minimum(params)
        if mu3 != want_mu:
            problems.append(f"mu(a3) = {mu3} != {want_mu}")
        if vecs3 != _predicted_coords("a3", field, unit):
            problems.append("minimal vectors of a3 differ from prediction")
        for name in ("a1", "a2"):
            mu, vecs = mins[name]
            if mu != 1 or vecs != _predicted_coords(name, field):
                problems.append(f"minimal data of {name} differs from prediction")
        spot = f"d={params.d} (m={params.m}, k={params.k}, delta={params.delta:+d})"
        if problems:
            failures += 1
            print(f"{spot}: FAIL  {'; '.join(problems)}")
        else:
            print(f"{spot}: ok  [classes=3, mu(a3)={want_mu}]")
    if failures:
        print(f"{failures} of {len(scan.accepted)} family members failed")
        return 1
    print(f"all {len(scan.accepted)} family members verified")
    return 0


def cmd_oracle(args) -> int:
    field = FieldDesc(args.d)
    x = field.element(args.alpha, args.beta)
    if not x.is_totally_positive():
        return _bad_input(f"{x} is not totally positive")
    md = brute_force_min(x)
    print(f"form: {x}")
    print(f"minimum: {md.mu}")
    for u, v in sorted(y.basis_coords() for y in md.vectors):
        print(f"  ({u}, {v})  =  {field.from_basis_coords(u, v)}")
    return 0


def _rational(text: str) -> Fraction:
    """A command-line rational p or p/q; argparse reports a bad one with exit 2."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational p or p/q: {text!r}") from None


def _field_d(text: str) -> int:
    """A command-line d, checked by FieldDesc: a squarefree integer >= 2."""
    try:
        return FieldDesc(int(text)).d
    except ValueError as exc:  # int()'s, or FieldDesc's QuadFieldError
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_least(low: int):
    """An argparse type for an integer >= low."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return integer


def _residues(text: str) -> set[int]:
    """A --mod4 value: residues from 1, 2, 3, comma-separated."""
    try:
        mod4 = {int(t) for t in text.split(",")}
    except ValueError:
        mod4 = set()
    if not mod4 or not mod4 <= {1, 2, 3}:
        raise argparse.ArgumentTypeError(f"must pick from 1,2,3; got {text!r}")
    return mod4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unaryperfect",
        description="Perfect unary forms over real quadratic fields: "
        "exact class walks and closed-form family checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="walk one field and report its classes")
    p.add_argument("d", type=_field_d)
    p.add_argument("--json", action="store_true", help="emit one JSON record")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", help="walk every squarefree d in a range")
    p.add_argument("lo", type=_at_least(2))
    p.add_argument("hi", type=int)
    p.add_argument(
        "--mod4", type=_residues, default="1,2,3", help="keep d with these residues mod 4"
    )
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser(
        "verify-family",
        help="check the three-class family's predictions against the walk",
    )
    p.add_argument("--m-max", type=_at_least(0), default=5)
    p.add_argument("--k-max", type=_at_least(0), default=4)
    p.add_argument("--d-cap", type=_at_least(0), default=20000)
    p.set_defaults(func=cmd_verify_family)

    p = sub.add_parser(
        "oracle",
        help="brute-force minimum of alpha + beta*sqrt(d)",
        epilog="A negative alpha or beta such as -5/28 reads as an option; "
        "put -- ahead of alpha and beta: oracle 7 -- 1/2 -5/28",
    )
    p.add_argument("d", type=_field_d)
    p.add_argument("alpha", type=_rational, help="rational, as p or p/q")
    p.add_argument("beta", type=_rational, help="rational, as p or p/q")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # a closed stdout is not bad input; run() handles it
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a range or a field too large for this machine
        print("size limit: out of memory", file=sys.stderr)
        return 2
    except OSError as exc:  # an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # input was checked while parsing and in the command: a bug
        import traceback  # imported here: only a bug needs it

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; send what is still buffered to devnull so
        # that the flush at exit cannot fail again, and report SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)
