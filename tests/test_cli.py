"""Command line behaviour: serialization round trips, exit codes,
deterministic scans."""

import concurrent.futures
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import unaryperfect.cli as cli
from unaryperfect import units, voronoi
from unaryperfect.cli import (
    ScanRecord,
    build_record,
    main,
    render_csv,
    render_json,
    squarefree_sieve,
)
from unaryperfect.family import TAG_T1, DClass, classify
from unaryperfect.quadfield import FieldDesc, InvariantError, QuadFieldError, is_squarefree
from unaryperfect.units import fundamental_unit
from unaryperfect.voronoi import PerfectForm


def test_sieve_frozen():
    assert squarefree_sieve(2, 20) == [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19]
    assert squarefree_sieve(48, 50) == []
    assert squarefree_sieve(1007, 1007) == [1007]
    assert len(squarefree_sieve(2, 100)) == 60


def test_sieve_matches_trial_division():
    for lo, hi in [(2, 2500), (10**6, 10**6 + 3000)]:
        assert squarefree_sieve(lo, hi) == [d for d in range(lo, hi + 1) if is_squarefree(d)]


@pytest.mark.parametrize("lo,hi", [(1, 5), (0, 10), (10, 9), (-3, -1)])
def test_sieve_rejects_bad_range(lo, hi):
    with pytest.raises(QuadFieldError):
        squarefree_sieve(lo, hi)


def test_build_record_frozen():
    r = build_record(1007)
    assert (r.d, r.n_classes, r.dclass.tag, r.predicted, r.agree) == (
        1007, 3, "FAM3", 3, True,
    )
    assert (r.unit_alpha, r.unit_beta, r.norm_sign) == (476, 15, 1)
    assert [c.pair for c in r.classes] == [(32224, 1015), (476, 15), (6678424, 210455)]
    assert r.classes[1].mu == 72

    r = build_record(2)
    assert (r.n_classes, r.dclass.tag, r.predicted, r.agree) == (1, "T1", 1, True)

    r = build_record(7)
    assert (r.n_classes, r.dclass.tag, r.predicted, r.agree) == (2, "UNCLASSIFIED", None, None)


def test_record_vectors_are_sorted_and_signed():
    r = build_record(7)
    vecs = r.classes[0].min_vectors
    assert list(vecs) == sorted(vecs)
    assert len(vecs) % 2 == 0
    assert set(vecs) == {(-u, -v) for u, v in vecs}


SAMPLE_DS = [2, 5, 7, 13, 223, 1007]


SAMPLE_CSV = (
    "d,nK,tag,alpha,beta,norm,predicted_nK,agree\n"
    "2,1,T1,1,1,-1,1,true\n"
    "5,1,T3,1/2,1/2,-1,1,true\n"
    "7,2,UNCLASSIFIED,8,3,1,,\n"
    "13,1,T3,3/2,1/2,-1,1,true\n"
    "223,2,RD2,224,15,1,2,true\n"
    "1007,3,FAM3,476,15,1,3,true\n"
)


def _csv_rows(text):
    """Data rows of scan CSV output, as lists of cells; checks the header."""
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(cli.CSV_COLUMNS)
    return rows[1:]


def test_csv_round_trip():
    records = [build_record(d) for d in SAMPLE_DS]
    text = render_csv(records)
    assert text == SAMPLE_CSV
    # the unit cells read back exactly, half-integers included
    for r, row in zip(records, _csv_rows(text), strict=True):
        assert (Fraction(row[3]), Fraction(row[4])) == (r.unit_alpha, r.unit_beta)


def _digits_value(text):
    """int(text), read in chunks below the digit limit of int()."""
    n = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def test_units_past_the_str_digit_limit_render(capsys):
    # the unit of d = 100000231 has 10,883 digits; its walk is out of
    # reach, so the record is built by hand around the unit
    field = FieldDesc(100000231)
    unit = fundamental_unit(field)
    dclass = classify(field, unit)
    alpha, beta = unit.value.a, unit.value.b
    record = ScanRecord(
        d=field.d,
        n_classes=0,
        dclass=dclass,
        unit_alpha=alpha,
        unit_beta=beta,
        norm_sign=unit.norm_sign,
        classes=(),
        predicted=dclass.predicted_class_count,
        agree=None,
    )
    assert beta.denominator == 1 and beta.numerator > 10**4300
    row = render_csv([record]).splitlines()[1].split(",")
    assert [_digits_value(t) for t in row[3:5]] == [alpha, beta]
    obj = json.loads(render_json([record]))[0]
    assert [_digits_value(obj[k]) for k in ("alpha", "beta")] == [alpha, beta]
    cli._print_record(record)
    out = capsys.readouterr().out
    assert f"fundamental unit: {row[3]} + {row[4]}*sqrt(100000231)  (norm +1)" in out


def test_classes_past_the_str_digit_limit_render(capsys):
    big = 10**4400
    digits = "1" + "0" * 4400
    field = FieldDesc(7)
    unit = fundamental_unit(field)
    record = ScanRecord(
        d=7,
        n_classes=1,
        dclass=classify(field, unit),
        unit_alpha=unit.value.a,
        unit_beta=unit.value.b,
        norm_sign=unit.norm_sign,
        classes=(PerfectForm((big, 1), big, ((big, 1),)),),
        predicted=None,
        agree=None,
    )
    obj = json.loads(render_json([record]), parse_int=_digits_value)[0]
    assert obj["classes"] == [{"pair": [big, 1], "mu": big, "min_vectors": [[big, 1]]}]
    cli._print_record(record)
    out = capsys.readouterr().out
    assert f"pair ({digits}, 1), slope 1/{digits}, minimum {digits}, " in out
    assert f"+-({digits} + sqrt(7))" in out


def test_output_to_a_text_only_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", "1007", "--json"]) == 0
    assert json.loads(out.getvalue())["nK"] == 3


def test_json_round_trip_is_exact():
    records = [build_record(d) for d in SAMPLE_DS]
    for r, obj in zip(records, json.loads(render_json(records)), strict=True):
        assert (obj["d"], obj["nK"], obj["norm"]) == (r.d, r.n_classes, r.norm_sign)
        assert (obj["tag"], obj["m"], obj["k"], obj["delta"]) == (
            r.dclass.tag, r.dclass.m, r.dclass.k, r.dclass.delta,
        )
        assert (Fraction(obj["alpha"]), Fraction(obj["beta"])) == (r.unit_alpha, r.unit_beta)
        assert (obj["predicted_nK"], obj["agree"]) == (r.predicted, r.agree)
        classes = [
            (tuple(c["pair"]), c["mu"], tuple(tuple(v) for v in c["min_vectors"]))
            for c in obj["classes"]
        ]
        assert classes == [(c.pair, c.mu, c.min_vectors) for c in r.classes]


def test_analyze_exit_codes(capsys):
    assert main(["analyze", "12"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["analyze", "7"]) == 0
    out = capsys.readouterr().out
    assert "classes: 2" in out
    assert "tag: UNCLASSIFIED" in out
    assert "predicted classes: none" in out
    assert "+-(3 - sqrt(7))" in out


def test_analyze_agreement_report(capsys):
    assert main(["analyze", "2"]) == 0
    out = capsys.readouterr().out
    assert "tag: T1" in out
    assert "predicted classes: 1  [agree]" in out


def test_analyze_json(capsys):
    assert main(["analyze", "1007", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["nK"] == 3
    assert obj["tag"] == "FAM3"
    assert (obj["m"], obj["k"], obj["delta"]) == (3, 2, 1)
    assert obj["agree"] is True
    assert obj["classes"][1]["mu"] == 72


# analyze's d was checked by argparse, so whatever the library raises
# afterwards, a ValueError included, is a bug
@pytest.mark.parametrize(
    "exc", [ValueError, QuadFieldError, InvariantError], ids=lambda e: e.__name__
)
def test_analyze_internal_failure_is_exit_3(monkeypatch, capsys, exc):
    def boom(d):
        raise exc("synthetic")

    monkeypatch.setattr(cli, "build_record", boom)
    assert main(["analyze", "7"]) == 3
    err = capsys.readouterr().err
    # a bug names itself: its type, its message and where it was raised
    assert f"internal error: {exc.__name__}: synthetic" in err
    assert "Traceback (most recent call last):" in err


def test_step_cap_overrun_is_exit_2(monkeypatch, capsys):
    # the centre of the period of sqrt(94) is 8 steps in, so with every
    # step folding the unit loop folds 7 times before it
    monkeypatch.setattr(units, "_FOLD", 0)
    monkeypatch.setattr(units, "_FOLD_CAP", 2)
    assert main(["analyze", "94"]) == 2
    assert "size limit:" in capsys.readouterr().err


def test_out_of_memory_is_a_size_limit(monkeypatch, capsys):
    # the sieve allocates a byte per integer of the range before any work
    def no_memory(lo, hi):
        raise MemoryError

    monkeypatch.setattr(cli, "squarefree_sieve", no_memory)
    assert main(["scan", "2", "10"]) == 2
    err = capsys.readouterr().err
    assert err == "size limit: out of memory\n"


def test_walk_cap_overrun_is_exit_2(monkeypatch, capsys):
    # d = 1007 has three classes, so one vertex cannot close the period
    monkeypatch.setattr(voronoi, "_WALK_CAP", 1)
    assert main(["analyze", "1007"]) == 2
    assert "size limit:" in capsys.readouterr().err


def test_failed_norm_square_is_exit_3(monkeypatch, capsys):
    # the centre of d = 7 checked as if L were odd: its norm is +1, not -1
    real = units._centre_product
    monkeypatch.setattr(
        units, "_centre_product", lambda d, g, Q, n, *halves: real(d, g, Q, -n, *halves)
    )
    assert main(["analyze", "7"]) == 3
    assert "internal error: InvariantError:" in capsys.readouterr().err


def _package_env():
    """os.environ with this package's source on PYTHONPATH, for subprocesses."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_cli_does_not_load_multiprocessing():
    code = (
        "import sys, unaryperfect.cli as cli\n"
        "assert cli.main(['analyze', '7']) == 0\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=_package_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_sieve_out_of_memory_reports_only_the_size_limit():
    # a 1 GB sieve under a 400 MB address-space cap: stderr must hold the
    # package's one line and nothing from the interpreter.  A failed
    # bytearray repeat prints a SystemError only when a field it never
    # initialised is nonzero, about 3 runs in 10 on CPython 3.11, so the
    # check runs ten times
    def cap_address_space():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (400 * 2**20, hard))

    for _ in range(10):
        done = subprocess.run(
            [sys.executable, "-m", "unaryperfect", "scan", "2", "1000000000"],
            env=_package_env(),
            preexec_fn=cap_address_space,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (done.returncode, done.stderr) == (2, "size limit: out of memory\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv,head",
    [
        # the reader goes away before the report is written, as with `| head -0`
        (["analyze", "1007"], 0),
        # the reader leaves during the one write of 382 kB, far past a pipe's
        # buffer: unbuffered, that write comes back short instead of failing
        (["scan", "2", "300", "--format", "json"], 10),
    ],
    ids=["analyze", "scan"],
)
def test_closed_stdout_exits_141_quietly(argv, head, unbuffered):
    env = {**_package_env(), "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen(
        [sys.executable, "-m", "unaryperfect", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(head)) == head
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


# bad input, each with the words that stderr must use to name it
BAD_INPUT = [
    (["analyze", "4"], "argument d: d must be squarefree, got 4"),
    (["analyze", "1"], "argument d: d must be >= 2, got 1"),
    (["oracle", "4", "1", "0"], "argument d: d must be squarefree, got 4"),
    (["oracle", "7", "--", "-1", "0"], "error: -1 is not totally positive"),
    (["oracle", "7", "0", "0"], "error: 0 is not totally positive"),
    (["scan", "1", "10"], "argument lo: must be at least 2, got 1"),
    (["scan", "10", "2"], "error: need lo <= hi, got [10, 2]"),
    (["scan", "5", "2"], "error: need lo <= hi, got [5, 2]"),
    (["scan", "2", "10", "--jobs", "0"], "argument --jobs: must be at least 1, got 0"),
    (["verify-family", "--m-max", "-5"], "argument --m-max: must be at least 0, got -5"),
    (["verify-family", "--k-max", "-1"], "argument --k-max: must be at least 0, got -1"),
    (["verify-family", "--d-cap", "-1"], "argument --d-cap: must be at least 0, got -1"),
]


def test_usage_errors(capsys):
    assert main([]) == 2
    capsys.readouterr()
    for argv, problem in BAD_INPUT:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert problem in err and "internal error" not in err, argv
    # argparse names the option that holds a bad residue list
    for mod4 in ("", ",", "a", "0,5"):
        assert main(["scan", "2", "30", "--mod4", mod4]) == 2
        assert "argument --mod4: must pick from 1,2,3" in capsys.readouterr().err


def test_scan_csv_output(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["scan", "2", "50", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "scanned 30 fields" in err
    assert "disagreements: 0" in err
    rows = _csv_rows(out.read_text())
    assert [int(row[0]) for row in rows] == squarefree_sieve(2, 50)
    assert all(row[7] in ("true", "") for row in rows)


def test_scan_mod4_filter(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "2", "60", "--mod4", "2,3", "--out", str(out)]) == 0
    rows = _csv_rows(out.read_text())
    assert rows
    assert all(int(row[0]) % 4 in (2, 3) for row in rows)


def test_scan_json_format(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["scan", "2", "30", "--format", "json", "--out", str(out)]) == 0
    assert out.read_text() == render_json([build_record(d) for d in squarefree_sieve(2, 30)])


def test_scan_is_deterministic_across_workers(tmp_path):
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(["scan", "2", "80", "--jobs", "1", "--out", str(one)]) == 0
    assert main(["scan", "2", "80", "--jobs", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.skipif(cli._usable_cpus() < 2, reason="the pool needs 2 CPUs")
def test_scan_json_is_deterministic_across_workers(tmp_path):
    # the real pool: each worker renders its items, and the parent joins them
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    argv = ["scan", "2", "200", "--format", "json", "--out"]
    assert main(argv + [str(one), "--jobs", "1"]) == 0
    assert main(argv + [str(two), "--jobs", "2"]) == 0
    assert one.read_bytes() == two.read_bytes()


@pytest.mark.skipif(cli._usable_cpus() < 2, reason="the pool needs 2 CPUs")
def test_scan_pool_takes_a_rebound_build_record(monkeypatch, tmp_path):
    # a closure cannot be pickled, so the pool must not map build_record itself
    original = cli.build_record
    monkeypatch.setattr(cli, "build_record", lambda d: original(d))
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    assert main(["scan", "2", "60", "--jobs", "1", "--out", str(one)]) == 0
    assert main(["scan", "2", "60", "--jobs", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_scan_records_frozen(capsys):
    # every pair, minimum and vector of the 607 fields in [2, 1000]
    assert main(["scan", "2", "1000", "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "d1e88c868a48433dbe4981086f4601b605ce8c3a5ce8a6f7570ec33a1ad95054"
    )


class _SerialPool:
    """Stands in for ProcessPoolExecutor and maps in this process.

    Like the real pool, it pickles the function it maps, and each result
    on its way back; it keeps each result's pickle.
    """

    def __init__(self, max_workers=None):
        self.chunksizes = []
        self.pickles = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(self._crossed, map(pickle.loads(pickle.dumps(fn)), items))

    def _crossed(self, result):
        self.pickles.append(pickle.dumps(result))
        return pickle.loads(self.pickles[-1])


def _counted_pools(monkeypatch):
    """Replace ProcessPoolExecutor by _SerialPool; return the pools made, and their sizes."""
    sizes = []
    pools = []

    def pool(max_workers):
        sizes.append(max_workers)
        pools.append(_SerialPool())
        return pools[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return pools, sizes


@pytest.mark.parametrize(
    "hi,jobs,cpus,size",
    [
        (20, 100000, 8, 8),  # 12 fields, 8 CPUs
        (20, 3, 8, 3),
        (7, 100000, 64, 5),  # 5 fields
        (20, 100000, None, None),  # unknown CPU count: one process, no pool
        (20, 2, 1, None),
        (300, 2, 2, 2),  # 183 fields: a quarter per worker would be 22
        # (affinity set, host CPUs); None: this OS has no affinity call
        (20, 2, (1, 2), None),  # pinned to one of two CPUs, as by taskset -c 0
        (20, 8, (3, 64), 3),
        (20, 8, (None, 4), 4),
    ],
)
def test_scan_pool_size_is_bounded(monkeypatch, tmp_path, hi, jobs, cpus, size):
    pools, sizes = _counted_pools(monkeypatch)
    affinity, count = cpus if isinstance(cpus, tuple) else (cpus, cpus)
    if affinity is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: count)
    out = tmp_path / "a.csv"
    assert main(["scan", "2", str(hi), "--jobs", str(jobs), "--out", str(out)]) == 0
    assert sizes == ([] if size is None else [size])
    # a worker holds one chunk of rows at a time
    assert all(1 <= chunk <= 16 for p in pools for chunk in p.chunksizes)
    assert out.read_text() == render_csv([build_record(d) for d in squarefree_sieve(2, hi)])


class _NoClasses(pickle.Unpickler):
    """Loads a pickle that names no class: plain ints, bools, None, strings, tuples."""

    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"{module}.{name} crossed the pool")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_pool_returns_rows_not_records(monkeypatch, tmp_path, fmt):
    # a worker renders its record and sends back (d, nK, agree, text) alone
    pools, _ = _counted_pools(monkeypatch)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    out = tmp_path / "scan.out"
    assert main(["scan", "2", "60", "--jobs", "2", "--format", fmt, "--out", str(out)]) == 0
    [pool] = pools
    records = [build_record(d) for d in squarefree_sieve(2, 60)]
    results = [_NoClasses(io.BytesIO(data)).load() for data in pool.pickles]
    assert len(results) == len(records)
    for result, r in zip(results, records):
        assert type(result) is tuple
        d, n_classes, agree, text = result
        assert (d, n_classes, agree) == (r.d, r.n_classes, r.agree)
        assert text == (cli._csv_line(cli._csv_row(r)) if fmt == "csv" else cli._json_item(r))
    # the check does see a record
    with pytest.raises(pickle.UnpicklingError, match="ScanRecord crossed"):
        _NoClasses(io.BytesIO(pickle.dumps(records[0]))).load()


def _route_scan(monkeypatch, path):
    """scan arguments for one path: one process, or the pool, run in this process."""
    if path == "pool":
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        return ["--jobs", "2"]
    return ["--jobs", "1"]


@pytest.mark.parametrize("path", ["one process", "pool"])
@pytest.mark.parametrize("fmt,renderer", [("csv", "_csv_row"), ("json", "_json_item")])
def test_scan_renders_each_record_as_it_arrives(monkeypatch, tmp_path, path, fmt, renderer):
    # a scan keeps rendered text, not records: each record is rendered
    # before the field two places later is built
    events = []
    build, render = cli.build_record, getattr(cli, renderer)

    def logged_build(d):
        events.append(("build", d))
        return build(d)

    def logged_render(record):
        events.append(("render", record.d))
        return render(record)

    monkeypatch.setattr(cli, "build_record", logged_build)
    monkeypatch.setattr(cli, renderer, logged_render)
    out = tmp_path / "scan.out"
    argv = ["scan", "2", "60", "--format", fmt, "--out", str(out)]
    assert main(argv + _route_scan(monkeypatch, path)) == 0
    ds = squarefree_sieve(2, 60)
    at = {event: i for i, event in enumerate(events)}
    assert len(at) == len(events) == 2 * len(ds)
    for d, later in zip(ds, ds[2:]):
        assert at["render", d] < at["build", later], d
    expected = (render_csv if fmt == "csv" else render_json)([build(d) for d in ds])
    assert out.read_text() == expected


@pytest.mark.parametrize("path", ["one process", "pool"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_scan_checks_out_before_the_first_field(monkeypatch, tmp_path, capsys, path, where):
    # an --out that cannot be written is bad input, found before any walk
    walked = []
    monkeypatch.setattr(cli, "build_record", walked.append)
    out = tmp_path / "no" / "such" / "x.csv" if where == "missing directory" else tmp_path
    assert main(["scan", "2", "2000", "--out", str(out)] + _route_scan(monkeypatch, path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err.splitlines()[0]
    assert walked == []
    assert sorted(tmp_path.iterdir()) == []


def test_scan_out_takes_dev_stdout():
    # /dev/stdout exists in a directory most users cannot write
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    done = subprocess.run(
        [sys.executable, "-m", "unaryperfect", "scan", "2", "30", "--out", "/dev/stdout"],
        env=_package_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == render_csv([build_record(d) for d in squarefree_sieve(2, 30)])
    assert done.stderr.startswith("scanned 18 fields;")


@pytest.mark.parametrize("path", ["one process", "pool"])
@pytest.mark.parametrize("dest", ["stdout", "missing", "existing"])
def test_scan_failing_field_writes_nothing(monkeypatch, tmp_path, capsys, path, dest):
    # a field that raises midway is a bug: exit 3, and no output at all
    original = cli.build_record

    def fails_at_31(d):
        if d == 31:
            raise ValueError("synthetic")
        return original(d)

    monkeypatch.setattr(cli, "build_record", fails_at_31)
    out = tmp_path / "scan.csv"
    if dest == "existing":
        out.write_bytes(b"d,nK\r\nearlier bytes")
    argv = ["scan", "2", "60"] + ([] if dest == "stdout" else ["--out", str(out)])
    assert main(argv + _route_scan(monkeypatch, path)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: ValueError: synthetic" in captured.err
    assert "scanned" not in captured.err
    if dest == "existing":
        assert out.read_bytes() == b"d,nK\r\nearlier bytes"
    else:
        assert not out.exists()


@pytest.mark.parametrize("path", ["one process", "pool"])
def test_scan_reports_a_failed_prediction(monkeypatch, capsys, path):
    # tagged T1, d = 7 is predicted one class, and the walk finds two
    real = cli.classify

    def t1_at_7(field, unit):
        return DClass(TAG_T1) if field.d == 7 else real(field, unit)

    monkeypatch.setattr(cli, "classify", t1_at_7)
    assert main(["scan", "2", "30"] + _route_scan(monkeypatch, path)) == 1
    captured = capsys.readouterr()
    rows = {row[0]: row for row in _csv_rows(captured.out)}
    assert rows["7"] == ["7", "2", "T1", "8", "3", "1", "1", "false"]
    assert all(row[7] in ("true", "") for d, row in rows.items() if d != "7")
    err = captured.err.splitlines()
    assert err[0].startswith("scanned 18 fields;") and err[0].endswith("disagreements: 1")
    assert err[1:] == ["prediction failed at d = 7"]


def test_scan_failed_final_write_is_exit_2(capsys):
    # /dev/full passes the check of --out, and the final write fails with ENOSPC
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    assert main(["scan", "2", "30", "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 28]")
    assert "scanned" not in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_scan_rejects_jobs_below_one(capsys, jobs):
    assert main(["scan", "2", "30", "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_verify_family_small(capsys):
    assert main(["verify-family", "--m-max", "3", "--k-max", "2", "--d-cap", "2000"]) == 0
    out = capsys.readouterr().out
    assert "d=1007 (m=3, k=2, delta=+1): ok  [classes=3, mu(a3)=72]" in out
    assert "d=799 (m=3, k=2, delta=-1): ok  [classes=3, mu(a3)=64]" in out
    assert "all 2 family members verified" in out


FAMILY_SMALL = ["verify-family", "--m-max", "3", "--k-max", "2", "--d-cap", "2000"]
FAMILY_HEADER = "candidates: 5, accepted: 2, rejected: {'d not squarefree': 2, 'r = +-1': 1}"


def test_verify_family_reports_a_lost_representative(monkeypatch, capsys):
    # 1 spans no perfect ray, so a3 = 1 lies in no walked class
    monkeypatch.setattr(cli, "construct_a3", lambda unit: unit.value.field.one())
    assert main(FAMILY_SMALL) == 1
    assert capsys.readouterr().out.splitlines() == [
        FAMILY_HEADER,
        "d=1007 (m=3, k=2, delta=+1): FAIL  a3 matched walk classes []; "
        "mu(a3) = 2 != 72; minimal vectors of a3 differ from prediction",
        "d=799 (m=3, k=2, delta=-1): FAIL  a3 matched walk classes []; "
        "mu(a3) = 2 != 64; minimal vectors of a3 differ from prediction",
        "2 of 2 family members failed",
    ]


def test_verify_family_reports_colliding_representatives(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "construct_a3", lambda unit: cli.construct_a1_a2(unit.value.field)[0]
    )
    assert main(FAMILY_SMALL) == 1
    assert capsys.readouterr().out.splitlines() == [
        FAMILY_HEADER,
        "d=1007 (m=3, k=2, delta=+1): FAIL  representatives collided on classes "
        "[0, 2, 0]; mu(a3) = 1 != 72; minimal vectors of a3 differ from prediction",
        "d=799 (m=3, k=2, delta=-1): FAIL  representatives collided on classes "
        "[0, 2, 0]; mu(a3) = 1 != 64; minimal vectors of a3 differ from prediction",
        "2 of 2 family members failed",
    ]


def test_verify_family_reports_a_wrong_class_count(monkeypatch, capsys):
    walk = cli.walk_classes

    def two_classes(field):
        result = walk(field)
        return dataclasses.replace(result, classes=result.classes[:2])

    monkeypatch.setattr(cli, "walk_classes", two_classes)
    assert main(FAMILY_SMALL) == 1
    assert capsys.readouterr().out.splitlines() == [
        FAMILY_HEADER,
        "d=1007 (m=3, k=2, delta=+1): FAIL  class count 2 != 3",
        "d=799 (m=3, k=2, delta=-1): FAIL  class count 2 != 3",
        "2 of 2 family members failed",
    ]


def _scaled_pair(s1, s2):
    """A construct_a1_a2 that returns s1*a1 and s2*a2; a scaled form keeps its class."""
    construct = cli.construct_a1_a2

    def patched(field):
        a1, a2 = construct(field)
        return s1 * a1, s2 * a2

    return patched


@pytest.mark.parametrize("which", ["a1", "a2"])
def test_verify_family_reports_wrong_minimal_data(monkeypatch, capsys, which):
    # a doubled form has minimum 2, not 1, and the same minimal vectors
    scales = (2, 1) if which == "a1" else (1, 2)
    monkeypatch.setattr(cli, "construct_a1_a2", _scaled_pair(*scales))
    assert main(FAMILY_SMALL) == 1
    assert capsys.readouterr().out.splitlines() == [
        FAMILY_HEADER,
        f"d=1007 (m=3, k=2, delta=+1): FAIL  minimal data of {which} differs from prediction",
        f"d=799 (m=3, k=2, delta=-1): FAIL  minimal data of {which} differs from prediction",
        "2 of 2 family members failed",
    ]


def test_verify_family_reports_swapped_conjugates(monkeypatch, capsys):
    # a1 and a2 have minimum 1 each, but each other's minimal vectors
    construct = cli.construct_a1_a2
    monkeypatch.setattr(cli, "construct_a1_a2", lambda field: construct(field)[::-1])
    assert main(FAMILY_SMALL) == 1
    both = "minimal data of a1 differs from prediction; minimal data of a2 differs from prediction"
    assert capsys.readouterr().out.splitlines() == [
        FAMILY_HEADER,
        f"d=1007 (m=3, k=2, delta=+1): FAIL  {both}",
        f"d=799 (m=3, k=2, delta=-1): FAIL  {both}",
        "2 of 2 family members failed",
    ]


def test_verify_family_reports_a_wrong_a3_minimum_alone(monkeypatch, capsys):
    # 3*eps spans the class of eps and has its minimal vectors, at 3 times its minimum
    monkeypatch.setattr(cli, "construct_a3", lambda unit: 3 * unit.value)
    assert main(FAMILY_SMALL) == 1
    assert capsys.readouterr().out.splitlines() == [
        FAMILY_HEADER,
        "d=1007 (m=3, k=2, delta=+1): FAIL  mu(a3) = 216 != 72",
        "d=799 (m=3, k=2, delta=-1): FAIL  mu(a3) = 192 != 64",
        "2 of 2 family members failed",
    ]


def test_verify_family_library_error_is_exit_3(monkeypatch, capsys):
    # every accepted member meets the constructors' hypotheses, so a
    # QuadFieldError from one is a bug, not bad input
    def boom(field):
        raise QuadFieldError("synthetic")

    monkeypatch.setattr(cli, "construct_a1_a2", boom)
    assert main(FAMILY_SMALL) == 3
    assert "internal error: QuadFieldError: synthetic" in capsys.readouterr().err


def test_verify_family_vacuous(capsys):
    assert main(["verify-family", "--d-cap", "100"]) == 0
    assert "vacuously passed" in capsys.readouterr().out


def test_oracle_command(capsys):
    assert main(["oracle", "7", "1/2", "5/28"]) == 0
    out = capsys.readouterr().out
    assert "minimum: 1" in out
    assert "(3, -1)  =  3 - sqrt(7)" in out
    assert out.count("  =  ") == 6  # all three +- pairs of the certified box
    assert main(["oracle", "12", "1", "0"]) == 2
    capsys.readouterr()
    # a zero denominator is bad input, not an internal failure
    for argv in (["oracle", "7", "1/0", "1"], ["oracle", "7", "1", "2/0"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "not a rational" in err and "internal error" not in err


def test_oracle_takes_negative_rationals_after_a_separator(capsys):
    # without "--", argparse would read -5/28 as an option
    assert main(["oracle", "7", "--", "1/2", "-5/28"]) == 0
    out = capsys.readouterr().out
    assert "minimum: 1" in out
    assert "(3, 1)  =  3 + sqrt(7)" in out


def test_oracle_help_names_the_separator(capsys):
    assert main(["oracle", "--help"]) == 0
    # argparse wraps help to the terminal's width
    assert "oracle 7 -- 1/2 -5/28" in " ".join(capsys.readouterr().out.split())


def test_oversized_oracle_box_is_a_size_limit(capsys):
    # this class of d = 1000003 has a certified box of about 4.4e14 points
    start = time.perf_counter()
    assert main(["oracle", "1000003", "889780003332002", "889778668665"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("size limit: certified box of 4.45e+14 points")


def test_oracle_rejects_indefinite_input(capsys):
    # 1 - sqrt(2) is not totally positive; surfaces as a usage error
    assert main(["oracle", "2", "1", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_raises_system_exit(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["unaryperfect", "analyze", "7"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0
