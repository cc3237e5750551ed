"""Spans and counters recorded around the program's public functions.

The tracer replaces module bindings from outside: every binding of a
wrapped function, in every module of the package, points at a wrapper
that records a span (name, start, end, parent) or bumps a counter.
Nothing in the program is edited, and uninstall() puts every binding
back.  A span's self time is its duration minus the spans nested in it,
and each span's self time is credited to the layer (module) that
defines the function.

Only the calls the per-layer metrics name are spans.  Everything else
the program does, field arithmetic included, stays in the self time of
the span that called it; so the walk's self time is the walk minus its
nested unit call, as the metric defines it.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

LAYERS = ("quadfield", "units", "traceform", "voronoi", "family", "cli")

# (module, attribute) of each span, in the layer of that module
SPANS = (
    ("quadfield", "is_squarefree"),
    ("units", "fundamental_unit"),
    ("units", "unit_square"),
    ("traceform", "min_data"),
    ("voronoi", "walk_classes"),
    ("voronoi", "classes_equal"),
    ("family", "classify"),
    ("family", "generate_family"),
    ("family", "construct_a1_a2"),
    ("family", "construct_a3"),
    ("family", "predicted_minimal_set"),
    ("family", "predicted_a3_minimum"),
    ("cli", "main"),
    ("cli", "build_record"),
    ("cli", "render_csv"),
    ("cli", "squarefree_sieve"),
)

# (module whose binding is replaced, attribute, counter name): calls are
# counted where that module makes them, without a span
COUNTERS = (
    ("voronoi", "neighbor_step", "voronoi.steps"),
    ("voronoi", "_reduce_ints", "traceform.reductions"),
)


class Tracer:
    """Spans and counters of one process, kept in memory until written out."""

    def __init__(self, modules: dict, clock=time.perf_counter):
        self.modules = modules
        self.clock = clock  # the probe clock, so probe samples stay out of spans
        self.stack: list[list] = []  # [span id, child seconds]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.layer_self = defaultdict(float)
        self.fn_time = defaultdict(float)
        self.fn_self = defaultdict(float)
        self.counts = Counter()
        self.maxima: dict[str, int] = {}
        self.unit_ds: set[int] = set()
        self._restore: list[tuple] = []

    # -- installing ----------------------------------------------------

    def _rebind(self, original, wrapper, only=None) -> None:
        """Point every binding of original (or only the one in `only`) at wrapper."""
        for name, mod in self.modules.items():
            if only is not None and name != only:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for layer, attr in SPANS:
            fn = getattr(self.modules[layer], attr)
            self._rebind(fn, self._span(layer, f"{layer}.{attr}", fn))
        for layer, attr, key in COUNTERS:
            fn = getattr(self.modules[layer], attr)
            self._rebind(fn, self._counter(key, fn), only=layer)
        field_desc = self.modules["quadfield"].FieldDesc
        post_init = field_desc.__post_init__
        self._restore.append((field_desc, "__post_init__", post_init))
        field_desc.__post_init__ = self._span("quadfield", "quadfield.FieldDesc", post_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- wrappers --------------------------------------------------------

    def _span(self, layer: str, name: str, fn):
        stack, spans = self.stack, self.spans
        layer_self, fn_time, fn_self, counts = self.layer_self, self.fn_time, self.fn_self, self.counts
        on_result = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                layer_self[layer] += dur - frame[1]
                fn_time[name] += dur
                fn_self[name] += dur - frame[1]
                counts[name] += 1
                spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_units_fundamental_unit(self, args, unit) -> None:
        self.unit_ds.add(args[0].d)
        value = unit.value
        bits = max(value.a.numerator.bit_length(), value.b.numerator.bit_length())
        if bits > self.maxima.get("units.unit_bits_max", 0):
            self.maxima["units.unit_bits_max"] = bits

    def _after_voronoi_walk_classes(self, args, result) -> None:
        self.counts["voronoi.classes"] += result.class_count

    def _after_voronoi_classes_equal(self, args, result) -> None:
        if result:
            self.counts["voronoi.classes_equal_hits"] += 1

    def _after_family_generate_family(self, args, scan) -> None:
        self.counts["family.candidates"] += len(scan.accepted) + len(scan.rejected)
        self.counts["family.accepted"] += len(scan.accepted)

    # -- reading out -----------------------------------------------------

    def snapshot(self) -> dict:
        """Accumulated totals, as plain data that survives JSON."""
        return {
            "layer_self": dict(self.layer_self),
            "fn_time": dict(self.fn_time),
            "fn_self": dict(self.fn_self),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps({"id": span_id, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )


def snapshot_delta(new: dict, old: dict) -> dict:
    """new minus old, except maxima, which keep the new value."""
    out = {}
    for key, values in new.items():
        if key == "maxima":
            out[key] = dict(values)
            continue
        before = old.get(key, {})
        out[key] = {k: v - before.get(k, 0) for k, v in values.items() if v != before.get(k, 0)}
    return out


def snapshot_sum(parts: list[dict]) -> dict:
    total = {"layer_self": {}, "fn_time": {}, "fn_self": {}, "counts": {}, "maxima": {}}
    for part in parts:
        for key, values in part.items():
            bucket = total[key]
            for k, v in values.items():
                bucket[k] = max(bucket.get(k, 0), v) if key == "maxima" else bucket.get(k, 0) + v
    return total
