"""Batch harness: n_max grids and cross-algorithm validation.

`TableSpec` owns a grid's settings: it defaults to the paper's grid and
checks gamma as `find_nmax` does.  Grid cells are independent jobs.  With
more than one worker, each worker process takes the next cell, largest
first, from one shared counter and sends all its answers back in one
message; results are assembled in spec order so the rendered output is
byte-identical regardless of worker count.  `multiprocessing` is imported on
first use, inside `generate_table`, so that `import bbp.cli` (the fixed cost
of every `bbp` call) does not load it.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .search import SearchRequest, check_gamma, find_nmax
from .solvers import (
    AlgorithmId,
    ColumnContext,
    CountingContext,
    DayContext,
    DirectContext,
    InstanceTooLargeError,
    Mode,
    ProblemInstance,
    Record,
    StirlingContext,
    prob_bruteforce,
)

PAPER_M_VALUES = [10, 25, 50, 100, 200, 365, 500, 1000]
PAPER_R_VALUES = list(range(1, 11))


class TableSpec(Record):
    """An n_max grid; m_values and r_values default to the paper's grid."""

    def __init__(self, m_values: list[int] | None = None,
                 r_values: list[int] | None = None,
                 gamma: Fraction = Fraction(1, 2),
                 output_format: str = "markdown",  # csv | markdown | json
                 float_above: int | None = None, jobs: int = 1):
        self.m_values = list(PAPER_M_VALUES) if m_values is None else m_values
        self.r_values = list(PAPER_R_VALUES) if r_values is None else r_values
        self.gamma = gamma
        self.output_format = output_format
        # Columns with m above this are searched in float mode first; the
        # answers stay exact.  None searches every column exactly.
        self.float_above = float_above
        self.jobs = jobs
        if not self.m_values or not self.r_values:
            raise ValueError("m_values and r_values must be nonempty")
        if output_format not in RENDERERS:
            raise ValueError("unknown output format %r" % output_format)
        check_gamma(self.gamma)


class TableResult(Record):
    def __init__(self, spec: TableSpec, cells: list[list[int]]):
        self.spec = spec
        self.cells = cells  # rows by r ascending, columns by m ascending

    def cell(self, r: int, m: int) -> int:
        return self.cells[self.spec.r_values.index(r)][self.spec.m_values.index(m)]


def _cell_job(args):
    m, r, gamma_nd, use_float = args
    gamma = Fraction(*gamma_nd)
    req = SearchRequest(
        m=m,
        r=r,
        gamma=gamma,
        mode=Mode.FLOAT if use_float else Mode.EXACT,
    )
    return find_nmax(req, certify=False).n_max  # the cell keeps n_max alone


def _cell_worker(next_cell, cells, conn) -> None:
    """Take cells[k] for k from the shared counter next_cell until none is
    left, then send every (index, n_max) pair, or the first exception raised,
    in one message."""
    reply = []
    try:
        while True:
            with next_cell.get_lock():
                k = next_cell.value
                next_cell.value = k + 1
            if k >= len(cells):
                break
            i, job = cells[k]
            reply.append((i, _cell_job(job)))
    except BaseException as exc:  # re-raised by the parent
        with next_cell.get_lock():
            next_cell.value = len(cells)  # the other workers stop early
        reply = exc
    conn.send(reply)
    conn.close()


def _run_workers(cells: list, workers: int) -> list[tuple[int, int]]:
    """(index, n_max) for every (index, job) cell, from `workers` processes.

    A worker's exception is re-raised once every worker is joined; one that
    dies before reporting raises RuntimeError.  No worker outlives the call.
    """
    import multiprocessing

    ctx = multiprocessing.get_context()
    next_cell = ctx.Value("i", 0)
    procs, conns = [], []
    try:
        for _ in range(workers):
            receive, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_cell_worker, args=(next_cell, cells, send))
            proc.start()
            send.close()  # so that recv sees EOF if the worker dies
            procs.append(proc)
            conns.append(receive)
        replies = []
        for proc, conn in zip(procs, conns):
            try:
                replies.append(conn.recv())
            except EOFError:
                proc.join()
                raise RuntimeError("a table worker exited with code %s before "
                                   "reporting" % proc.exitcode) from None
        for proc in procs:
            proc.join()  # workers that reported exit on their own
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()
    for reply in replies:
        if isinstance(reply, BaseException):
            raise reply
    return [pair for reply in replies for pair in reply]


def generate_table(spec: TableSpec) -> TableResult:
    jobs = []
    for r in spec.r_values:
        for m in spec.m_values:
            use_float = spec.float_above is not None and m > spec.float_above
            jobs.append(
                (m, r, (spec.gamma.numerator, spec.gamma.denominator), use_float)
            )
    # Start no more workers than there are cells or cores to keep busy.
    workers = min(spec.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # Largest cells first, so the longest one does not start last.
        order = sorted(range(len(jobs)), key=lambda i: jobs[i][0] * jobs[i][1],
                       reverse=True)
        values = [0] * len(jobs)
        for i, n_max in _run_workers([(i, jobs[i]) for i in order], workers):
            values[i] = n_max
    else:
        values = [_cell_job(job) for job in jobs]
    ncols = len(spec.m_values)
    cells = [values[i * ncols : (i + 1) * ncols] for i in range(len(spec.r_values))]
    return TableResult(spec=spec, cells=cells)


def render_csv(result: TableResult) -> str:
    spec = result.spec
    lines = ["r\\m," + ",".join(str(m) for m in spec.m_values)]
    for r, row in zip(spec.r_values, result.cells):
        lines.append(str(r) + "," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def render_markdown(result: TableResult) -> str:
    spec = result.spec
    header = "| r\\m | " + " | ".join(str(m) for m in spec.m_values) + " |"
    rule = "|" + "---|" * (len(spec.m_values) + 1)
    lines = [header, rule]
    for r, row in zip(spec.r_values, result.cells):
        lines.append("| %d | %s |" % (r, " | ".join(str(v) for v in row)))
    return "\n".join(lines) + "\n"


def render_json(result: TableResult) -> str:
    spec = result.spec
    payload = {
        "gamma": "%d/%d" % (spec.gamma.numerator, spec.gamma.denominator),
        "algorithm": AlgorithmId.COLUMN.value,  # the exact search's solver
        "m_values": spec.m_values,
        "r_values": spec.r_values,
        "cells": [v for row in result.cells for v in row],
    }
    return json.dumps(payload, separators=(",", ":")) + "\n"


RENDERERS = {"csv": render_csv, "markdown": render_markdown, "json": render_json}


def render(result: TableResult) -> str:
    return RENDERERS[result.spec.output_format](result)


# ---------------------------------------------------------------------------
# Cross-algorithm validation


class Divergence(Record):
    def __init__(self, instance: ProblemInstance, values: dict[str, str]):
        self.instance = instance
        self.values = values  # algorithm name -> exact probability string


class XCheckReport(Record):
    def __init__(self, max_m: int, max_n: int, max_r: int):
        self.max_m = max_m
        self.max_n = max_n
        self.max_r = max_r
        self.instances_checked = 0
        self.oracle_checked = 0
        self.divergences: list[Divergence] = []

    @property
    def passed(self) -> bool:
        return not self.divergences


def cross_check(max_m: int, max_n: int, max_r: int) -> XCheckReport:
    """Run every exact algorithm (and the oracle where admissible) on every
    instance within bounds and record any disagreement verbatim."""
    if max_m < 1 or max_n < 0 or max_r < 1:
        raise ValueError("xcheck requires max_m >= 1, max_n >= 0 and max_r >= 1")
    report = XCheckReport(max_m=max_m, max_n=max_n, max_r=max_r)
    for r in range(1, max_r + 1):
        fills = {
            AlgorithmId.DAY_AT_A_TIME.value: DayContext(max_m, r),
            AlgorithmId.COUNTING.value: CountingContext(max_m, r, keep_all=True),
            AlgorithmId.STIRLING.value: StirlingContext(max_m, r, keep_all=True),
            AlgorithmId.DIRECT.value: DirectContext(max_m, r, keep_all=True),
        }
        for ctx in fills.values():
            ctx.extend(max_n)
        for m in range(1, max_m + 1):
            # The column context holds only its own m.
            contexts = {**fills, AlgorithmId.COLUMN.value: ColumnContext(m, r)}
            for n in range(0, max_n + 1):
                inst = ProblemInstance(m, n, r)
                values = {name: ctx.prob(n, m) for name, ctx in contexts.items()}
                try:
                    values[AlgorithmId.BRUTE_FORCE.value] = prob_bruteforce(inst)
                    report.oracle_checked += 1
                except InstanceTooLargeError:
                    pass  # beyond the oracle's limit: the exact routes only
                report.instances_checked += 1
                if len(set(values.values())) != 1:
                    report.divergences.append(
                        Divergence(
                            instance=inst,
                            values={k: str(v) for k, v in values.items()},
                        )
                    )
    return report

