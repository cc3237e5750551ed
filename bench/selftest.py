"""Self-test of the benchmark: tiny runs of every workload, and checks that bite.

    python3 bench/selftest.py

Runs every workload, plain and traced, on tiny inputs and reads the
result line against BENCHMARK.json.  Then feeds each output check a
corrupted output and requires it to object.  It lives beside the
benchmark, outside the test suite's testpaths.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import checks
import run
import workloads
from probe import SpeedProbe

HERE = Path(__file__).resolve().parent
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=workloads.ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


class TinyRuns(unittest.TestCase):
    def test_every_workload_plain_and_traced(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))
        for name in names:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    code, result = run_tiny(name, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if not trace:
                        for metric, item in result["metrics"].items():
                            self.assertGreater(item["value"], 0, metric)


def square(unit, d):
    a, b, _ = unit
    return a * a + d * b * b, 2 * a * b, 1


class ScanChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.P = workloads.load_program()
        cls.ds = cls.P["cli"].squarefree_sieve(2, 240)
        cls.records = {d: cls.P["cli"].build_record(d) for d in cls.ds}
        cls.csv = cls.P["cli"].render_csv([cls.records[d] for d in cls.ds])

    def test_clean_output_passes(self):
        self.assertEqual(checks.scan_csv_problems(self.csv, self.ds), [])
        for r in self.records.values():
            self.assertEqual(workloads.record_problems(r), [])

    def edit_row(self, d, **changes):
        rows = self.csv.splitlines()
        header = rows[0].split(",")
        for i, row in enumerate(rows):
            cells = row.split(",")
            if cells[0] == str(d):
                for k, v in changes.items():
                    cells[header.index(k)] = str(v)
                rows[i] = ",".join(cells)
        return "\n".join(rows) + "\n"

    def test_class_count_off_by_one(self):
        # a CSV row alone pins the count only where d's shape or unit predicts it
        for d in (2, 223):
            r = self.records[d]
            self.assertTrue(checks.scan_csv_problems(self.edit_row(d, nK=r.n_classes + 1), self.ds), d)
        for d in (2, 7, 94, 223):
            r = self.records[d]
            bad = dataclasses.replace(r, n_classes=r.n_classes + 1)
            self.assertTrue(workloads.record_problems(bad), d)

    def test_unit_replaced_by_its_square(self):
        for d in (6, 13, 94):
            r = self.records[d]
            a, b, _ = square((r.unit_alpha, r.unit_beta, r.norm_sign), d)
            bad = dataclasses.replace(r, unit_alpha=a, unit_beta=b, norm_sign=1)
            self.assertTrue(workloads.record_problems(bad), d)
            self.assertTrue(checks.search_matches(d, (a, b, 1), 10**4), d)

    def test_unit_arithmetic(self):
        self.assertTrue(checks.unit_problems(7, Fraction(8), Fraction(3), -1))  # wrong norm sign
        self.assertTrue(checks.unit_problems(7, Fraction(9), Fraction(3), 1))  # not a unit
        self.assertTrue(checks.unit_problems(5, Fraction(1, 2), Fraction(3, 2), -1))  # not integral
        self.assertTrue(checks.unit_problems(7, Fraction(8), Fraction(-3), 1))  # below 1
        self.assertEqual(checks.unit_problems(7, Fraction(8), Fraction(3), 1), [])

    def test_wrong_tag_and_prediction(self):
        self.assertTrue(checks.scan_csv_problems(self.edit_row(2, tag="UNCLASSIFIED"), self.ds))
        self.assertTrue(checks.scan_csv_problems(self.edit_row(7, tag="RD2", predicted_nK=2, agree="true"), self.ds))
        self.assertTrue(checks.scan_csv_problems(self.edit_row(3, agree="false"), self.ds))

    def test_missing_row_and_header(self):
        rows = self.csv.splitlines()
        self.assertTrue(checks.scan_csv_problems("\n".join(rows[:-1]) + "\n", self.ds))
        self.assertTrue(checks.scan_csv_problems("\n".join(["x"] + rows[1:]) + "\n", self.ds))

    def test_class_vectors(self):
        r = self.records[94]
        c = r.classes[0]
        cases = {
            "minimum off by one": dataclasses.replace(c, mu=c.mu + 1),
            "one pair only": dataclasses.replace(c, min_vectors=c.min_vectors[:1] + c.min_vectors[-1:]),
            "vector not minimal": dataclasses.replace(
                c, min_vectors=tuple(sorted(set(c.min_vectors) | {(3, 5), (-3, -5)}))
            ),
            "pair moved": dataclasses.replace(c, pair=(c.pair[0] + 1, c.pair[1])),
        }
        for name, bad in cases.items():
            record = dataclasses.replace(r, classes=(bad,) + r.classes[1:])
            self.assertTrue(checks.class_problems(r.d, r.n_classes, workloads.record_classes(record)), name)

    def test_oracle_rejects_a_wrong_minimum(self):
        r = self.records[7]
        (pair, mu, vecs) = workloads.record_classes(r)[0]
        self.assertEqual(workloads.brute_force_problems(self.P, r, [(pair, mu, vecs)]), [])
        self.assertTrue(workloads.brute_force_problems(self.P, r, [(pair, mu + 1, vecs)]))
        self.assertTrue(workloads.brute_force_problems(self.P, r, [(pair, mu, vecs[:2])]))


class WorkloadChecks(unittest.TestCase):
    """Each workload's check() objects when one pass's output is corrupted."""

    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(dir=workloads.ROOT / ".bench_out"))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def passes(self, cls):
        w = cls("tiny", 5, self.tmp, SpeedProbe())
        P = workloads.load_program()
        w.prepare(P)
        passes = [w.run_pass(P, i) for i in range(2)]
        self.assertEqual(w.check(P, passes), [])
        return w, P, passes

    def test_passes_that_disagree(self):
        for cls in (workloads.ScanDense, workloads.WalkLongPeriod, workloads.FamilyVerify, workloads.UnitSurvey):
            w, P, passes = self.passes(cls)
            passes[0].digest = "0" * 64
            self.assertTrue(w.check(P, passes), cls.name)

    def test_pool_output_differing_from_single_process(self):
        w, P, passes = self.passes(workloads.ScanPool)
        rc, text = passes[1].output
        lines = text.splitlines()
        lines[3], lines[4] = lines[4], lines[3]
        passes[1].output = (rc, "\n".join(lines) + "\n")
        self.assertTrue(w.check(P, passes))

    def test_walk_record_with_a_class_too_many(self):
        w, P, passes = self.passes(workloads.WalkLongPeriod)
        d = w.ds[0]
        passes[-1].output[d] = dataclasses.replace(passes[-1].output[d], n_classes=passes[-1].output[d].n_classes + 1)
        self.assertTrue(w.check(P, passes))

    def test_family_report_with_a_bad_member(self):
        w, P, passes = self.passes(workloads.FamilyVerify)
        rc, lines = passes[-1].output
        for i, line in enumerate(lines):
            if line.startswith("d="):
                spot = line.split(": ")[0]
                for bad in (
                    f"{spot}: FAIL  class count 2 != 3",
                    line.replace("mu(a3)=", "mu(a3)=1"),
                    line.replace(spot.split()[0], "d=1009"),
                ):
                    corrupted = lines[:i] + [bad] + lines[i + 1 :]
                    for p in passes:
                        p.output = (rc, corrupted)
                    self.assertTrue(w.check(P, passes), bad)
                break
        for p in passes:
            p.output = (rc, lines[:-1] + ["1 of 6 family members failed"])
        self.assertTrue(w.check(P, passes))
        for p in passes:
            p.output = (1, lines)
        self.assertTrue(w.check(P, passes))

    def test_unit_survey_with_a_squared_unit_or_wrong_tag(self):
        w, P, passes = self.passes(workloads.UnitSurvey)
        d = sorted(passes[-1].output)[0]
        a, b, n, tag = passes[-1].output[d]
        for bad in ((*square((a, b, n), d), tag), (a, b, n, "FAM3")):
            for p in passes:
                p.output = {**p.output, d: bad}
            self.assertTrue(w.check(P, passes), bad)


class Statistics(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        for n in (40, 400, 607, 1302):
            value, pct, count = run.tail([float(i) for i in range(1, n + 1)])
            self.assertEqual(count, n)
            self.assertGreaterEqual(n - value, 10)
            self.assertLess(n - value, 10 + n / 100 + 1)
        self.assertEqual(run.tail([1.0, 2.0, 9.0]), (2.0, 50, 3))

    def test_probe_time_stays_out_of_the_clock(self):
        probe = SpeedProbe()
        start = probe.now()
        for _ in range(20):
            probe.sample()
        self.assertLess(probe.now() - start, 0.002)
        self.assertEqual(len(probe.take(0)[1]), 20)


if __name__ == "__main__":
    (workloads.ROOT / ".bench_out").mkdir(exist_ok=True)
    unittest.main(verbosity=2)
