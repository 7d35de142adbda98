"""Span recording inside a traced job, and the per-layer arithmetic on spans.

Inside the job (see shim.py) a Recorder wraps the public functions of each
`fraclat` module in every module namespace that binds them, so a call made
through `cli`, `verify` or the defining module alike opens a span.  Spans are
kept in memory as [name, start, end, parent, counters] and written as JSON
lines, with the job id appended, when the job ends.  Times come from time.monotonic(), which is
CLOCK_MONOTONIC on Linux and so comparable with the parent's spawn and reap
times.

Outside the job, `self_times` gives each span its duration minus the union
of its children's intervals, and `layer_totals` sums spans into the
per-layer metrics.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time

# span name -> (defining module, attribute); every fraclat module that binds
# the same object under that attribute gets the wrapper too
WRAPPED = {
    "chain.closed": ("fraclat.chain", "element_infinite_closed"),
    "chain.quadrature": ("fraclat.chain", "element_infinite_quadrature"),
    "chain.bloch": ("fraclat.chain", "element_periodic_bloch"),
    "chain.images": ("fraclat.chain", "element_periodic_images"),
    "chain.laplacian": ("fraclat.chain", "build_laplacian_1d"),
    "special.quad": ("fraclat.special", "integrate_even_periodic"),
    "special.zeta": ("fraclat.special", "hurwitz_zeta"),
    "lattice.periodic_nd": ("fraclat.lattice", "element_periodic_nd"),
    "lattice.nd_bz": ("fraclat.lattice", "element_infinite_nd_bz"),
    "lattice.bessel": ("fraclat.lattice", "bessel_element_extrapolated"),
    "lattice.jv": ("fraclat.lattice", "jv"),
    "lattice.dispersion2d": ("fraclat.lattice", "normalized_dispersion_2d"),
    "continuum.kernel_periodic": ("fraclat.continuum", "riesz_kernel_periodic"),
    "continuum.kernel_infinite": ("fraclat.continuum", "riesz_kernel_infinite"),
    "output.record": ("fraclat.output", "OutputRecord"),
    "output.csv": ("fraclat.output", "record_to_csv"),
    "output.json": ("fraclat.output", "record_to_json"),
    "verify.suite": ("fraclat.verify", "run_suite"),
    "cli.cmd": ("fraclat.cli", ("cmd_elements", "cmd_matrix", "cmd_dispersion",
                                "cmd_kernel", "cmd_verify")),
    "cli.write": ("fraclat.cli", "_write_output"),
}

NAME, START, END, PARENT, COUNTS = range(5)


class Recorder:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main_stack = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool worker's first span hangs under what the main thread runs
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, time.monotonic(), 0.0, parent, {}]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.monotonic()
        self._stack().pop()

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def dump(self, path: str, job: str) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = ids[id(span[PARENT])] if span[PARENT] is not None else -1
                handle.write(json.dumps([span[NAME], span[START], span[END], parent,
                                         span[COUNTS], job]) + "\n")


def _count(span, key: str, amount) -> None:
    if span is not None:
        span[COUNTS][key] = span[COUNTS].get(key, 0) + amount


def _wrap(rec: Recorder, name: str, func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        span = rec.open(name)
        try:
            return func(*args, **kwargs)
        finally:
            rec.close(span)

    return traced


def _wrap_quad(rec: Recorder, func):
    def traced(f, spec=None):
        span = rec.open("special.quad")

        def integrand(x):
            _count(span, "nodes", getattr(x, "size", 1))
            return f(x)

        try:
            return func(integrand, spec)
        except Exception as exc:
            if type(exc).__name__ == "ToleranceError":
                _count(span, "fail", 1)
            raise
        finally:
            rec.close(span)

    return traced


def _wrap_bessel(rec: Recorder, func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        span = rec.open("lattice.bessel")
        try:
            return func(*args, **kwargs)
        except Exception as exc:
            if type(exc).__name__ == "ExtrapolationError":
                _count(span, "fail", 1)
            raise
        finally:
            rec.close(span)

    return traced


def _wrap_jv(rec: Recorder, func):
    def traced(order, x):
        span = rec.open("lattice.jv")
        try:
            _count(span, "evals", getattr(x, "size", 1))
            return func(order, x)
        finally:
            rec.close(span)

    return traced


def _wrap_record(rec: Recorder, cls):
    def traced(command, parameters, columns, rows, metadata=None):
        span = rec.open("output.record")
        try:
            record = cls(command, parameters, columns, rows, metadata or {})
            _count(span, "cells", len(record.rows) * len(record.columns))
            return record
        finally:
            rec.close(span)

    return traced


def _wrap_encoder(rec: Recorder, name: str, func):
    def traced(record):
        span = rec.open(name)
        try:
            text = func(record)
            _count(span, "bytes", len(text))
            return text
        finally:
            rec.close(span)

    return traced


def _wrap_suite(rec: Recorder, func):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        span = rec.open("verify.suite")
        try:
            results = func(*args, **kwargs)
            _count(span, "checks", len(results))
            _count(span, "failed", sum(1 for r in results if not r.passed))
            return results
        finally:
            rec.close(span)

    return traced


def _wrap_nd_bz(rec: Recorder, func):
    # the zone integral builds one axis rule per axis and Gauss order from
    # panel edges; its tensor node count is the product over the dim axes of
    # panels x order, summed over the coarse and fine passes
    @functools.wraps(func)
    def traced(order, dim, *args, **kwargs):
        span = rec.open("lattice.nd_bz")
        try:
            return func(order, dim, *args, **kwargs)
        finally:
            rec.close(span)
            axes = [p * g for p, g in zip(span[COUNTS].pop("panels", []),
                                          span[COUNTS].pop("order", []))]
            nodes = sum(math.prod(axes[i:i + dim]) for i in range(0, len(axes) - dim + 1, dim))
            _count(span, "nodes", nodes)

    return traced


def _note_on_nd_bz(rec: Recorder, key: str, func, size_of):
    def counted(*args, **kwargs):
        result = func(*args, **kwargs)
        span = rec.current()
        if span is not None and span[NAME] == "lattice.nd_bz":
            span[COUNTS].setdefault(key, []).append(size_of(args, result))
        return result

    return counted


def _replace(obj, replacement) -> None:
    """Rebind `obj` to `replacement` in every fraclat module namespace that holds it."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "fraclat" or module_name.startswith("fraclat.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is obj:
                setattr(module, attr, replacement)


def install(rec: Recorder) -> None:
    """Wrap every function of WRAPPED (fraclat must already be imported)."""
    special_wrappers = {
        "special.quad": lambda f: _wrap_quad(rec, f),
        "lattice.nd_bz": lambda f: _wrap_nd_bz(rec, f),
        "lattice.bessel": lambda f: _wrap_bessel(rec, f),
        "lattice.jv": lambda f: _wrap_jv(rec, f),
        "output.record": lambda f: _wrap_record(rec, f),
        "output.csv": lambda f: _wrap_encoder(rec, "output.csv", f),
        "output.json": lambda f: _wrap_encoder(rec, "output.json", f),
        "verify.suite": lambda f: _wrap_suite(rec, f),
    }
    for name, (module_name, attrs) in WRAPPED.items():
        module = sys.modules[module_name]
        for attr in (attrs,) if isinstance(attrs, str) else attrs:
            func = getattr(module, attr)
            make = special_wrappers.get(name, lambda f, n=name: _wrap(rec, n, f))
            _replace(func, make(func))
    lattice = sys.modules["fraclat.lattice"]
    _replace(lattice.geometric_panel_edges,
             _note_on_nd_bz(rec, "panels", lattice.geometric_panel_edges,
                            lambda args, edges: len(edges) - 1))
    _replace(lattice.leggauss,
             _note_on_nd_bz(rec, "order", lattice.leggauss, lambda args, rule: int(args[0])))


# ------------------------------------------------------------------ analysis


def load(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus the union of its children's
    intervals (clipped to the span).  Also returns, per span, the amount by
    which its children's durations exceed that union (parallel overlap)."""
    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append(span)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        clipped = [(max(k[START], start), min(k[END], end)) for k in kids]
        covered = _union_length([c for c in clipped if c[1] > c[0]])
        excess = sum(k[END] - k[START] for k in kids) - covered
        out.append((end - start - covered, excess))
    return out


ELEMENT_ROUTES = ("chain.closed", "chain.quadrature", "chain.bloch", "chain.images",
                  "lattice.nd_bz", "lattice.bessel")
COUNTERS = ("nodes", "fail", "evals", "cells", "bytes", "checks", "failed")


def layer_totals(spans: list) -> dict:
    """Per-layer sums over one job's spans.

    Keys are '<span>.self_s', '<span>.calls' and '<span>.<counter>', plus
    'chain.images.terms', 'parallel_excess_s' (children's time beyond the
    union they cover, from pool threads) and the two sums behind the
    parallel overlap ratio: element spans directly under a command that
    computes more than one element, and those commands' spans.
    """
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    children = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append(span)
    for span, kids, (own, excess) in zip(spans, children, self_times(spans)):
        name = span[NAME]
        add(f"{name}.self_s", own)
        add(f"{name}.calls", 1)
        add("parallel_excess_s", excess)
        for key in COUNTERS:
            if key in span[COUNTS]:
                add(f"{name}.{key}", span[COUNTS][key])
        if name == "chain.images":
            # each doubling of the image cutoff S (from 8) resums the tail with
            # two Hurwitz zeta calls; the sum covers 2 S images plus offset p
            rounds = sum(1 for k in kids if k[NAME] == "special.zeta") // 2
            add("chain.images.terms", 1 + (16 * 2 ** (rounds - 1) if rounds else 0))
        elements = [k for k in kids if k[NAME] in ELEMENT_ROUTES]
        if name == "cli.cmd" and len(elements) > 1:
            add("elements.child_s", sum(k[END] - k[START] for k in elements))
            add("elements.cmd_s", span[END] - span[START])
    return totals
