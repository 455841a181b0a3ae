"""Spans and per-layer counters for one traced operation.

The tracer wraps the public functions of each blockcheb module from the
outside (nothing under src/ knows about it).  Every wrapped call opens a
span; when it closes, the span's duration minus the time covered by its
traced children is added to the layer's self time.  Spans are kept in
memory, up to SPAN_CAP per operation, and handed to run.py when the
operation ends; calls past the cap still count in the aggregates.
"""

from __future__ import annotations

import sys
import time

SPAN_CAP = 5_000


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, self_s, total_s]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []          # (id, parent id, name, start, end)
        self.dropped = 0
        self._stack: list[list] = []          # [id, start, child time]
        self._next_id = 0

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; name may be a callable of the result."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            if self._stack:
                self._stack[-1][2] += duration
            label = name(result) if callable(name) else name
            entry = self.stats.setdefault(label, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration - frame[2]
            entry[2] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, parent, label, frame[1], end))
            else:
                self.dropped += 1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def report(self) -> dict:
        return {"stats": self.stats, "counters": self.counters,
                "spans": self.spans, "dropped": self.dropped}


def _rebind(original, replacement) -> None:
    """Point every blockcheb module-level name bound to original at replacement.

    Modules bind imported functions under their own names, so patching
    the defining module alone would miss `from .x import f` callers.
    """
    for modname, module in list(sys.modules.items()):
        if modname != "blockcheb" and not modname.startswith("blockcheb."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _kernel_bucket(ground: int) -> str:
    if ground <= 12:
        return "kernel.ground_le12"
    if ground <= 15:
        return "kernel.ground_13_15"
    return "kernel.ground_ge16"


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions; blockcheb.cli must be imported."""
    from blockcheb import (analysis, blockcount, documents, exact,
                           orthocheck, polyfamily, verify)

    kernel = blockcount._kernel

    def traced_kernel(n, p, m):
        ground = n * p + m
        tracer.add("kernel.masks", 1 << ground)
        return tracer.call(_kernel_bucket(ground), kernel, n, p, m)
    _rebind(kernel, traced_kernel)

    plain = {
        blockcount.f_closed: "blockcount.f_closed",
        blockcount.check_identity: "blockcount.check_identity",
        polyfamily.build_by_reduction: "polyfamily.alt_routes",
        polyfamily.build_by_three_term: "polyfamily.alt_routes",
        polyfamily.build_via_t_recurrence: "polyfamily.alt_routes",
        polyfamily.coeff_recurrence_e2: "polyfamily.coeff_recurrences",
        polyfamily.coeff_recurrence_e3: "polyfamily.coeff_recurrences",
        polyfamily.coeff_triple_sum: "polyfamily.coeff_recurrences",
        orthocheck.inner_product_exact: "orthocheck.exact",
        analysis.bound_check: "analysis.bound_check",
        analysis.trig_form_residual: "analysis.trig_residual",
        analysis.numeric_zeros: "analysis.numeric_zeros",
        analysis.extrema: "analysis.extrema",
        analysis.evaluate_exact_at_float: "analysis.exact_eval",
        documents.build_document: "documents.build",
    }
    for fn, name in plain.items():
        _rebind(fn, tracer.wrap(name, fn))

    numeric = orthocheck.inner_product_numeric
    nodes = orthocheck.trapezoid_nodes

    def traced_numeric(n, m, family, weight):
        tracer.add("orthocheck.numeric.nodes", nodes(n, m, weight))
        return tracer.call("orthocheck.numeric", numeric, n, m, family, weight)
    _rebind(numeric, traced_numeric)

    serialize = documents.serialize

    def traced_serialize(doc, fmt):
        text = tracer.call("documents.serialize", serialize, doc, fmt)
        tracer.add("documents.serialize.bytes", len(text.encode()))
        return text
    _rebind(serialize, traced_serialize)

    row = polyfamily.Triangle.row

    def traced_row(tri, n):
        before = len(tri._rows)
        result = tracer.call("polyfamily.row", row, tri, n)
        built = tri._rows[before:]
        tracer.add("polyfamily.row.rows", len(built))
        tracer.add("polyfamily.row.coeffs", sum(map(len, built)))
        return result
    polyfamily.Triangle.row = traced_row

    cache_document = documents.TriangleCache.document

    def traced_cache_document(cache, family, max_n):
        builds = tracer.stats.get("documents.build", (0,))[0]
        result = tracer.call("documents.cache", cache_document, cache, family,
                             max_n)
        built = tracer.stats.get("documents.build", (0,))[0] > builds
        tracer.add("documents.cache.builds" if built
                   else "documents.cache.hits", 1)
        return result
    documents.TriangleCache.document = traced_cache_document

    exact.TrigPoly.__mul__ = tracer.wrap("exact.trigpoly_mul",
                                         exact.TrigPoly.__mul__)
    orthocheck.GramMatrix.band_report = tracer.wrap(
        "orthocheck.band_report", orthocheck.GramMatrix.band_report)

    def check_name(result):
        return f"verify.{result.check_id}" if result is not None \
            else "verify.unfinished"
    wrapped = {}
    for suite, group in verify.SUITES.items():
        verify.SUITES[suite] = tuple(
            wrapped.setdefault(fn, tracer.wrap(check_name, fn))
            for fn in group)
