"""Span tracing from outside the program, and the per-layer metrics.

A Tracer replaces the program's public callables where they are looked up
(module attributes and class methods) with wrappers that record one span
per call: name, start, end, parent span and a few counts.  Spans stay in
memory.  Pool workers forked while a span is open inherit the wrappers and
the open span as their parent; each worker writes its own spans to one file
per pid when it exits, and the parent collects those files.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import weakref
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

import bbp.cli
import bbp.exact_arith
import bbp.search
import bbp.solvers
import bbp.stirling
import bbp.tabulator
from bbp.solvers import DirectContext, FloatDirectContext, StirlingContext
from bbp.stirling import RestrictedStirling

# Per-layer metrics in report order, with their units.
PER_LAYER_UNITS = {
    "search.find_nmax_s": "s",
    "search.calls": "count",
    "search.probes_exact": "count",
    "search.probes_float": "count",
    "search.fill_overshoot": "ratio",
    "search.certify_s": "s",
    "search.self_s": "s",
    "solvers.direct_extend_s": "s",
    "solvers.direct_cells": "count",
    "solvers.direct_ns_per_cell": "ns",
    "solvers.float_extend_s": "s",
    "solvers.float_cells": "count",
    "solvers.prob_reduce_s": "s",
    "solvers.stirling_ctx_s": "s",
    "solvers.max_bits": "bits",
    "stirling.extend_s": "s",
    "stirling.rows": "count",
    "tabulator.generate_table_s": "s",
    "tabulator.render_s": "s",
    "tabulator.critical_path_s": "s",
    "tabulator.dispatch_s": "s",
    "tabulator.worker_busy_ratio": "ratio",
    "exact_arith.decimal_string_s": "s",
    "cli.self_s": "s",
    "trace_overhead_ratio": "ratio",
}


class _Fill:
    """Observes extend(n) on incremental contexts: new layers and width.

    Contexts only grow, so the layers a call adds are n minus the highest n
    that context has been extended to before.
    """

    def __init__(self):
        self._filled = weakref.WeakKeyDictionary()

    def __call__(self, args):
        ctx, n = args[0], args[1]
        before = self._filled.get(ctx, 0)
        self._filled[ctx] = max(before, n)
        width = getattr(ctx, "m", 1)
        return lambda result: {"n": n, "new": max(0, n - before), "width": width}


def _count_bits(args):
    return lambda result: {"bits": result.bit_length()}


def _search_mode(args):
    mode = args[0].mode.value
    return lambda result: {"mode": mode, "n_max": result.n_max}


def _table_jobs(args):
    jobs = args[0].jobs
    return lambda result: {"jobs": jobs}


class Tracer:
    """Wraps the program's public callables while installed."""

    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.spans: list[tuple] = []
        self._stack: list[str] = []
        self._serial = 0
        self._patched: list[tuple[object, str, object]] = []
        self._installed = False
        mp_util.register_after_fork(self, Tracer._after_fork)

    def targets(self):
        """(owner, attribute, span name, observer) for every wrapped call."""
        fill = _Fill()
        return [
            (bbp.cli, "run", "cli.run", None),
            (bbp.cli, "find_nmax", "search.find_nmax", _search_mode),
            (bbp.tabulator, "find_nmax", "search.find_nmax", _search_mode),
            (bbp.search, "find_nmax", "search.find_nmax", _search_mode),
            (bbp.cli, "prob_exact", "solvers.prob_exact", None),
            (bbp.cli, "count_valid_stirling", "solvers.count_valid_stirling", None),
            (bbp.cli, "generate_table", "tabulator.generate_table", _table_jobs),
            (bbp.cli, "render", "tabulator.render", None),
            (bbp.cli, "decimal_string", "exact_arith.decimal_string", None),
            (DirectContext, "extend", "solvers.DirectContext.extend", fill),
            (DirectContext, "count", "solvers.DirectContext.count", _count_bits),
            (DirectContext, "prob", "solvers.DirectContext.prob", None),
            (DirectContext, "prob_at_least", "solvers.DirectContext.prob_at_least", None),
            (FloatDirectContext, "extend", "solvers.FloatDirectContext.extend", fill),
            (FloatDirectContext, "prob", "solvers.FloatDirectContext.prob", None),
            (StirlingContext, "extend", "solvers.StirlingContext.extend", None),
            (RestrictedStirling, "extend", "stirling.RestrictedStirling.extend", fill),
        ]

    def install(self) -> None:
        for owner, attr, name, observe in self.targets():
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._installed = False

    def _wrap(self, name, fn, observe):
        tracer, stack = self, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._serial += 1
            sid = "%d:%d" % (os.getpid(), tracer._serial)
            parent = stack[-1] if stack else None
            finish = observe(args) if observe else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            attrs = finish(result) if finish else None
            tracer.spans.append((sid, parent, name, start, end, attrs))
            return result
        return traced

    def _after_fork(self) -> None:
        if not self._installed:
            return
        # The child keeps the open spans on its stack as parents, but the
        # finished spans it inherited belong to the parent process.
        self.spans = []
        mp_util.Finalize(None, self._write_own_spans, exitpriority=10)

    def _write_own_spans(self) -> None:
        path = self.span_dir / ("spans-%d.json" % os.getpid())
        path.write_text(json.dumps(self.spans))

    def collect(self) -> list[tuple]:
        """This process's spans plus every worker's, then forget them."""
        spans = list(self.spans)
        for path in sorted(self.span_dir.glob("spans-*.json")):
            spans.extend(tuple(s) for s in json.loads(path.read_text()))
            path.unlink()
        self.spans = []
        return spans


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (trace_overhead_ratio excluded)."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)

    def dur(s):
        return s[4] - s[3]

    def pid(s):
        return s[0].split(":")[0]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in children[s[0]] if pid(c) == pid(s))

    def ancestor(s, name):
        parent = by_id.get(s[1])
        while parent is not None:
            if parent[2] == name:
                return parent
            parent = by_id.get(parent[1])
        return None

    named = defaultdict(list)
    for s in spans:
        named[s[2]].append(s)

    def total(name):
        return sum(dur(s) for s in named[name])

    searches = named["search.find_nmax"]
    direct_extends = named["solvers.DirectContext.extend"]
    float_extends = named["solvers.FloatDirectContext.extend"]

    # Highest exact fill and float-mode fill time, per find_nmax call.
    highest = defaultdict(int)
    certify = 0.0
    for s in direct_extends:
        search = ancestor(s, "search.find_nmax")
        if search is not None:
            highest[search[0]] = max(highest[search[0]], s[5]["n"])
            if search[5] and search[5]["mode"] == "float":
                certify += dur(s)
    filled = sum(highest[s[0]] for s in searches if s[5])
    needed = sum(s[5]["n_max"] + 1 for s in searches if s[5] and highest[s[0]])

    probes = [s for name in ("solvers.DirectContext.prob",
                             "solvers.DirectContext.prob_at_least")
              for s in named[name]]
    direct_cells = sum(s[5]["new"] * s[5]["width"] for s in direct_extends if s[5])
    direct_s = sum(dur(s) for s in direct_extends)

    # Pool accounting: find_nmax spans whose parent is a generate_table span.
    critical = busy = capacity = 0.0
    for table in named["tabulator.generate_table"]:
        per_worker = defaultdict(float)
        for c in children[table[0]]:
            if c[2] == "search.find_nmax":
                per_worker[pid(c)] += dur(c)
        critical += max(per_worker.values(), default=0.0)
        busy += sum(per_worker.values())
        capacity += (table[5]["jobs"] if table[5] else 1) * dur(table)
    table_s = total("tabulator.generate_table")

    return {
        "search.find_nmax_s": total("search.find_nmax"),
        "search.calls": len(searches),
        "search.probes_exact": sum(
            1 for s in probes if ancestor(s, "search.find_nmax") is not None),
        "search.probes_float": sum(
            1 for s in named["solvers.FloatDirectContext.prob"]
            if ancestor(s, "search.find_nmax") is not None),
        "search.fill_overshoot": filled / needed if needed else 0.0,
        "search.certify_s": certify,
        "search.self_s": sum(self_time(s) for s in searches),
        "solvers.direct_extend_s": direct_s,
        "solvers.direct_cells": direct_cells,
        "solvers.direct_ns_per_cell": 1e9 * direct_s / direct_cells if direct_cells else 0.0,
        "solvers.float_extend_s": sum(dur(s) for s in float_extends),
        "solvers.float_cells": sum(s[5]["new"] * s[5]["width"] for s in float_extends if s[5]),
        "solvers.prob_reduce_s": sum(
            self_time(s) for s in named["solvers.DirectContext.prob"]),
        "solvers.stirling_ctx_s": sum(
            self_time(s) for s in named["solvers.StirlingContext.extend"]),
        "solvers.max_bits": max((s[5]["bits"] for s in named["solvers.DirectContext.count"]
                                 if s[5]), default=0),
        "stirling.extend_s": total("stirling.RestrictedStirling.extend"),
        "stirling.rows": sum(s[5]["new"] for s in named["stirling.RestrictedStirling.extend"]
                             if s[5]),
        "tabulator.generate_table_s": table_s,
        "tabulator.render_s": total("tabulator.render"),
        "tabulator.critical_path_s": critical,
        "tabulator.dispatch_s": table_s - critical,
        "tabulator.worker_busy_ratio": busy / capacity if capacity else 0.0,
        "exact_arith.decimal_string_s": total("exact_arith.decimal_string"),
        "cli.self_s": sum(self_time(s) for s in named["cli.run"]),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Metric by metric median over traced passes."""
    return {key: statistics.median(d[key] for d in per_pass) for key in per_pass[0]}
