"""Benchmark of the unaryperfect package: five workloads and a per-layer trace.

    python3 bench/run.py --workload scan-dense --seed 1 --seconds 16 --trace 0

Sets the program up five times (fresh import, inputs, warm-up), then
runs timed passes over the workload's inputs until --seconds have gone,
checks every output, and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives
the end-to-end metrics; --trace 1 alternates plain and traced passes and
gives the per-layer metrics.  A readable summary goes to stderr.  See
README.md beside this file for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
import tracemalloc

import checks
import workloads
from probe import SpeedMap, SpeedProbe
from tracing import LAYERS, Tracer, snapshot_delta, snapshot_sum

OUT = workloads.ROOT / ".bench_out"
SETUPS = 5
SETUP_SAMPLES = 6  # extra probe samples before each set-up and after the last
PEAK_FIELDS = 3  # fields whose unit call is re-run under tracemalloc

END_TO_END = {
    "setup_s": "s",
    "fields_per_s": "1/s",
    "field_ms_p50": "ms",
    "field_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "voronoi.walk_ms": "ms",
    "voronoi.classes": "count",
    "voronoi.ms_per_class": "ms",
    "voronoi.steps": "count",
    "voronoi.steps_per_class": "step/class",
    "voronoi.classes_equal_calls": "count",
    "voronoi.classes_equal_ms": "ms",
    "voronoi.classes_equal_hits": "count",
    "traceform.reductions": "count",
    "traceform.reductions_per_step": "red/step",
    "traceform.min_data_calls": "count",
    "traceform.min_data_ms": "ms",
    "family.generate_ms": "ms",
    "family.candidates": "count",
    "family.accepted": "count",
    "family.accepted_share": "share",
    "family.classify_ms": "ms",
    "units.unit_calls": "count",
    "units.unit_ms": "ms",
    "units.cf_period_sum": "count",
    "units.us_per_cf_step": "us",
    "units.unit_bits_max": "bit",
    "units.unit_peak_mb": "MB",
    "quadfield.fielddesc_calls": "count",
    "quadfield.fielddesc_ms": "ms",
    "cli.sieve_ms": "ms",
    "cli.record_self_ms": "ms",
    "cli.render_ms": "ms",
    "cli.pool_efficiency": "share",
    "cli.pool_busy_s": "s",
    "cli.pool_wall_s": "s",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.total_ms": "ms",
    "trace.attributed_share": "share",
    "trace.overhead_pct": "%",
    "trace.passes": "count",
}


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def tail(values: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples): the highest whole percentile with >= 10 samples beyond it.

    Below 40 samples such a percentile is no tail; the median stands in,
    reported as percentile 50.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 40:
        return statistics.median(xs), 50, n
    p = 100 * (n - 10) // n
    rank = max(1, math.ceil(p * n / 100))  # nearest rank; n - rank >= 10
    return xs[rank - 1], p, n


def pass_factor(p) -> float:
    """The speed factor of a whole pass, from every probe sample taken during it."""
    moments = [t for ts, _ in p.samples.values() for t in ts]
    kernel_s = [k for _, ks in p.samples.values() for k in ks]
    return SpeedMap(moments, kernel_s).overall()


def pass_seconds(p) -> float:
    return p.seconds * pass_factor(p)


def field_seconds(p) -> dict:
    """Each field's time, scaled by the speed the probe saw around it."""
    maps = {pid: SpeedMap(*samples) for pid, samples in p.samples.items()}
    own = os.getpid()
    return {
        d: (end - start) * maps[p.field_pid.get(d, own)].around(start, end)
        for d, (start, end) in p.field_s.items()
    }


def per_field_median(passes) -> dict:
    """Each field's median scaled time over the passes.

    The host sometimes stops the process for 40-90 ms; with at least
    three passes such a stall, which hits single fields at random, stays
    out of the median.
    """
    runs: dict = {}
    for p in passes:
        for d, s in field_seconds(p).items():
            runs.setdefault(d, []).append(s)
    return {d: statistics.median(v) for d, v in runs.items()}


def set_up(workload):
    """Fresh import, input generation and warm-up, SETUPS times; the last program is kept.

    Each set-up's time is scaled to the reference speed, like the passes.
    A set-up lasts about a tenth of a second, too short for the timer to
    give enough samples to trim a stalled one, so more are taken between
    set-ups, outside their spans.
    """
    probe = workload.probe
    first = len(probe.kernel_s)
    spans = []
    probe.start()
    try:
        for _ in range(SETUPS):
            for _ in range(SETUP_SAMPLES):
                probe.sample()
            start = probe.now()
            P = workloads.load_program()
            workload.prepare(P)
            workload.warm(P)
            spans.append((start, probe.now()))
    finally:
        probe.stop()
    for _ in range(SETUP_SAMPLES):
        probe.sample()
    speed = SpeedMap(*probe.take(first))
    return P, [(end - start) * speed.around(start, end) for start, end in spans]


def run_passes(workload, P, seconds: float, trace: bool):
    """Passes until `seconds` have gone and the workload's min_passes are made.

    With trace, odd passes run traced, so at least one pass of each kind
    is made.  The probe runs in this process during each pass, or in the
    workers of a pool pass.  Only the last pass keeps its full output.
    """
    probe = workload.probe
    tracer = Tracer(P, probe.now) if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            before = tracer.snapshot()
            tracer.unit_ds.clear()
            tracer.install()
        first_sample = len(probe.kernel_s)
        if not workload.pool:
            probe.start()
        try:
            result = workload.run_pass(P, len(passes), tracer if traced else None)
        finally:
            probe.stop()
            if traced:
                tracer.uninstall()
        if not workload.pool:
            probe.sample()  # a pass shorter than the probe period still gets one
            result.samples[os.getpid()] = probe.take(first_sample)
        result.traced = traced
        if traced:
            result.trace = snapshot_delta(tracer.snapshot(), before)
            result.unit_ds = set(tracer.unit_ds)
        if passes:
            passes[-1].output = passes[-1].records = None
        passes.append(result)
        least = max(workload.min_passes, 2 if trace else 1)
        if time.perf_counter() - start >= seconds and len(passes) >= least:
            return passes, tracer


def end_to_end(workload, passes, setup_durations) -> tuple[dict, dict]:
    per_field = per_field_median(passes)
    times = list(per_field.values())
    tail_value, pct, n = tail(times)
    workers_kb = max(sum(p.worker_peak_kb.values()) for p in passes)
    values = {
        "setup_s": statistics.median(setup_durations),
        "fields_per_s": len(per_field) / statistics.median(pass_seconds(p) for p in passes),
        "field_ms_p50": statistics.median(times) * 1000,
        "field_ms_tail": tail_value * 1000,
        "peak_rss_mb": (workloads.peak_rss_kb() + workers_kb) / 1024,
    }
    notes = {
        "tail_percentile": pct,
        "tail_samples": n,
        "speed_factors": [round(pass_factor(p), 4) for p in passes],
        "raw_fields_per_s": len(per_field) / statistics.median(p.seconds for p in passes),
    }
    return values, notes


def unit_peak_mb(P, ds: list[int]) -> float:
    """Largest allocation peak of one fundamental_unit call, over the longest-period fields."""
    longest = sorted(ds, key=checks.cf_period)[-PEAK_FIELDS:]
    peak = 0
    for d in longest:
        workloads.clear_unit_memo(P)
        field = P["quadfield"].FieldDesc(d)
        tracemalloc.start()
        try:
            P["units"].fundamental_unit(field)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    workloads.clear_unit_memo(P)
    return peak / 2**20


def per_layer(workload, P, passes) -> tuple[dict, dict]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    worker_parts = [w for p in traced for w in p.worker_trace]
    agg = snapshot_sum([p.trace for p in traced] + worker_parts)
    fn_time, fn_self, counts = agg["fn_time"], agg["fn_self"], agg["counts"]

    # span times are on the probe clock; scale them like the end-to-end times
    speed = statistics.median(pass_factor(p) for p in traced)

    def ms(key, table=fn_time):
        return table.get(key, 0.0) * 1000 * speed / n

    def count(key):
        return counts.get(key, 0) / n

    if workload.pool:
        unit_ds = sorted(traced[-1].field_s)
    else:
        unit_ds = sorted(traced[-1].unit_ds)
    overhead = ratio(
        statistics.median(pass_seconds(p) for p in traced), statistics.median(pass_seconds(p) for p in plain)
    ) - 1
    period_sum = sum(checks.cf_period(d) for d in unit_ds)
    wall = sum(p.seconds for p in traced)
    worker_busy = sum(end - start for p in traced for start, end in p.field_s.values()) if workload.pool else 0.0
    layer_self = {layer: agg["layer_self"].get(layer, 0.0) for layer in LAYERS}
    walk_ms, classes, steps = ms("voronoi.walk_classes", fn_self), count("voronoi.classes"), count("voronoi.steps")
    values = {
        "voronoi.walk_ms": walk_ms,
        "voronoi.classes": classes,
        "voronoi.ms_per_class": ratio(walk_ms, classes),
        "voronoi.steps": steps,
        "voronoi.steps_per_class": ratio(steps, classes),
        "voronoi.classes_equal_calls": count("voronoi.classes_equal"),
        "voronoi.classes_equal_ms": ms("voronoi.classes_equal"),
        "voronoi.classes_equal_hits": count("voronoi.classes_equal_hits"),
        "traceform.reductions": count("traceform.reductions"),
        "traceform.reductions_per_step": ratio(count("traceform.reductions"), steps),
        "traceform.min_data_calls": count("traceform.min_data"),
        "traceform.min_data_ms": ms("traceform.min_data"),
        "family.generate_ms": ms("family.generate_family"),
        "family.candidates": count("family.candidates"),
        "family.accepted": count("family.accepted"),
        "family.accepted_share": ratio(count("family.accepted"), count("family.candidates")),
        "family.classify_ms": ms("family.classify"),
        "units.unit_calls": count("units.fundamental_unit"),
        "units.unit_ms": ms("units.fundamental_unit"),
        "units.cf_period_sum": period_sum,
        "units.us_per_cf_step": ratio(ms("units.fundamental_unit") * 1000, period_sum),
        "units.unit_bits_max": agg["maxima"].get("units.unit_bits_max", 0),
        "units.unit_peak_mb": unit_peak_mb(P, unit_ds),
        "quadfield.fielddesc_calls": count("quadfield.FieldDesc"),
        "quadfield.fielddesc_ms": ms("quadfield.FieldDesc"),
        "cli.sieve_ms": ms("cli.squarefree_sieve"),
        "cli.record_self_ms": ms("cli.build_record", fn_self),
        "cli.render_ms": ms("cli.render_csv"),
        "cli.pool_efficiency": 0.0,
        "cli.pool_busy_s": 0.0,
        "cli.pool_wall_s": 0.0,
        **{f"{layer}.self_ms": s * 1000 * speed / n for layer, s in layer_self.items()},
        "trace.total_ms": (wall + worker_busy) * 1000 * speed / n,
        "trace.attributed_share": ratio(sum(layer_self.values()), wall + worker_busy),
        "trace.overhead_pct": overhead * 100,
        "trace.passes": n,
    }
    if workload.pool:
        start, end, samples = workload.single
        busy = (end - start) * SpeedMap(*samples).overall()
        pool_wall = statistics.median(pass_seconds(p) for p in plain)
        values["cli.pool_busy_s"] = busy
        values["cli.pool_wall_s"] = pool_wall
        values["cli.pool_efficiency"] = busy / (2 * pool_wall)
    return values, {"plain_passes": len(plain), "speed_factor": speed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's inputs")
    args = parser.parse_args(argv)

    run_dir = OUT / f"run-{args.workload}-{args.seed}-{args.trace}-{args.size}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.size, args.seed, run_dir, SpeedProbe())
        try:
            P, setup_durations = set_up(workload)
        except workloads.ProgramMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        passes, tracer = run_passes(workload, P, args.seconds, bool(args.trace))
        problems = workload.check(P, passes)
        if args.trace:
            values, notes = per_layer(workload, P, passes)
            units = PER_LAYER
            tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            values, notes = end_to_end(workload, passes, setup_durations)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(max(workload.fields, p.failed) for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "passes": len(passes),
        "pass_s": [round(p.seconds, 3) for p in passes],
        "fields": workload.fields,
        "setup_runs_s": [round(s, 3) for s in setup_durations],
        "problems": len(problems),
        **notes,
    }
    print(json.dumps(summary), file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
