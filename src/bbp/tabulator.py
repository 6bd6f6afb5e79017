"""Batch harness: n_max grids, cross-algorithm validation, benchmarks.

Grid cells are independent jobs, dispatched to a pool largest first; results
are assembled in spec order so the rendered output is byte-identical
regardless of worker count.
"""

from __future__ import annotations

import json
import multiprocessing
import platform
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .search import SearchRequest, find_nmax
from .solvers import (
    AlgorithmId,
    ColumnContext,
    CountingContext,
    DayContext,
    DirectContext,
    FloatDirectContext,
    Mode,
    ProblemInstance,
    StirlingContext,
    bounded_composition_count,
    prob_bruteforce,
    prob_exact,
)

PAPER_M_VALUES = [10, 25, 50, 100, 200, 365, 500, 1000]
PAPER_R_VALUES = list(range(1, 11))


@dataclass
class TableSpec:
    m_values: list[int] = field(default_factory=lambda: list(PAPER_M_VALUES))
    r_values: list[int] = field(default_factory=lambda: list(PAPER_R_VALUES))
    gamma: Fraction = field(default_factory=lambda: Fraction(1, 2))
    output_format: str = "markdown"  # csv | markdown | json
    # Columns with m above this are searched in float mode first; the
    # answers stay exact.  None searches every column exactly.
    float_above: int | None = None
    jobs: int = 1

    def __post_init__(self):
        if not self.m_values or not self.r_values:
            raise ValueError("m_values and r_values must be nonempty")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")


@dataclass
class TableResult:
    spec: TableSpec
    cells: list[list[int]]  # rows by r ascending, columns by m ascending

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
    return find_nmax(req).n_max


def generate_table(spec: TableSpec) -> TableResult:
    jobs = []
    for r in spec.r_values:
        for m in spec.m_values:
            use_float = spec.float_above is not None and m > spec.float_above
            jobs.append(
                (m, r, (spec.gamma.numerator, spec.gamma.denominator), use_float)
            )
    if spec.jobs > 1:
        # Largest cells first, so the longest one does not start last.
        order = sorted(range(len(jobs)), key=lambda i: jobs[i][0] * jobs[i][1],
                       reverse=True)
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            done = dict(zip(order, pool.map(_cell_job, [jobs[i] for i in order])))
        values = [done[i] for i in range(len(jobs))]
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


def render(result: TableResult, output_format: str | None = None) -> str:
    fmt = output_format or result.spec.output_format
    try:
        return RENDERERS[fmt](result)
    except KeyError:
        raise ValueError("unknown output format %r" % fmt) from None


# ---------------------------------------------------------------------------
# Cross-algorithm validation


@dataclass
class Divergence:
    instance: ProblemInstance
    values: dict[str, str]  # algorithm name -> exact probability string


@dataclass
class XCheckReport:
    max_m: int
    max_n: int
    max_r: int
    instances_checked: int = 0
    oracle_checked: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.divergences


def cross_check(max_m: int, max_n: int, max_r: int,
                oracle_max_compositions: int = 200_000) -> XCheckReport:
    """Run every exact algorithm (and the oracle where admissible) on every
    instance within bounds and record any disagreement verbatim."""
    report = XCheckReport(max_m=max_m, max_n=max_n, max_r=max_r)
    for r in range(1, max_r + 1):
        day = DayContext(max_m, r)
        counting = CountingContext(max_m, r, keep_all=True)
        stirling = StirlingContext(max_m, r, keep_all=True)
        direct = DirectContext(max_m, r, keep_all=True)
        for ctx in (day, counting, stirling, direct):
            ctx.extend(max_n)
        for m in range(1, max_m + 1):
            column = ColumnContext(m, r)  # holds only its own m
            for n in range(0, max_n + 1):
                inst = ProblemInstance(m, n, r)
                values = {
                    AlgorithmId.DAY_AT_A_TIME.value: day.prob(n, m),
                    AlgorithmId.COUNTING.value: counting.prob(n, m),
                    AlgorithmId.STIRLING.value: stirling.prob(n, m),
                    AlgorithmId.DIRECT.value: direct.prob(n, m),
                    AlgorithmId.COLUMN.value: column.prob(n),
                }
                if bounded_composition_count(m, n, r) <= oracle_max_compositions:
                    values[AlgorithmId.BRUTE_FORCE.value] = prob_bruteforce(inst)
                    report.oracle_checked += 1
                report.instances_checked += 1
                if len(set(values.values())) != 1:
                    report.divergences.append(
                        Divergence(
                            instance=inst,
                            values={k: str(v) for k, v in values.items()},
                        )
                    )
    return report


# ---------------------------------------------------------------------------
# Benchmarks


@dataclass
class BenchRow:
    instance: ProblemInstance
    algorithm: AlgorithmId
    mode: Mode
    seconds: float | None  # median over repetitions; None when timed out
    timed_out: bool = False


@dataclass
class BenchReport:
    rows: list[BenchRow]
    repetitions: int
    environment: str
    note: str = (
        "expected ordering on large instances: column <= direct(float)"
        " <= direct(exact) <= stirling <= day <= counting (not asserted)"
    )


def _bench_target(conn, m, n, r, algorithm_name, mode_name):
    inst = ProblemInstance(m, n, r)
    algorithm = AlgorithmId(algorithm_name)
    start = time.perf_counter()
    if algorithm is AlgorithmId.DIRECT and mode_name == Mode.FLOAT.value:
        FloatDirectContext(m, r).prob(n)
    else:
        prob_exact(inst, algorithm)
    conn.send(time.perf_counter() - start)
    conn.close()


def _timed_run(m, n, r, algorithm, mode, timeout):
    ctx = multiprocessing.get_context("fork" if sys.platform != "win32" else "spawn")
    parent, child = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_bench_target, args=(child, m, n, r, algorithm.value, mode.value)
    )
    proc.start()
    child.close()
    proc.join(timeout)
    if proc.is_alive():
        proc.terminate()
        proc.join()
        return None
    elapsed = parent.recv() if parent.poll() else None
    parent.close()
    return elapsed


def benchmark(instances: list[ProblemInstance], algorithms: list[AlgorithmId],
              repetitions: int = 3, timeout: float = 300.0) -> BenchReport:
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rows: list[BenchRow] = []
    for inst in instances:
        for algorithm in algorithms:
            if algorithm is AlgorithmId.BRUTE_FORCE:
                # The oracle is excluded automatically beyond its guard.
                from .solvers import DEFAULT_ORACLE_LIMIT

                count = bounded_composition_count(inst.m, inst.n, inst.r)
                if count > DEFAULT_ORACLE_LIMIT:
                    continue
            modes = [Mode.EXACT]
            if algorithm is AlgorithmId.DIRECT:
                modes.append(Mode.FLOAT)
            for mode in modes:
                timings = []
                timed_out = False
                for _ in range(repetitions):
                    elapsed = _timed_run(
                        inst.m, inst.n, inst.r, algorithm, mode, timeout
                    )
                    if elapsed is None:
                        timed_out = True
                        break
                    timings.append(elapsed)
                rows.append(
                    BenchRow(
                        instance=inst,
                        algorithm=algorithm,
                        mode=mode,
                        seconds=None if timed_out else statistics.median(timings),
                        timed_out=timed_out,
                    )
                )
    environment = "%s, Python %s" % (platform.platform(), platform.python_version())
    return BenchReport(rows=rows, repetitions=repetitions, environment=environment)
