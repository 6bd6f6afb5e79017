import contextlib
import io
import json
import multiprocessing
import os
import signal
import time
from fractions import Fraction

import pytest

import bbp.solvers
import bbp.tabulator
from bbp import cli
from bbp.search import SearchRequest
from bbp.stirling import NegativeCountError
from bbp.tabulator import (
    TableSpec,
    cross_check,
    generate_table,
    render,
    render_csv,
    render_json,
    render_markdown,
)


def small_spec(**overrides):
    defaults = dict(m_values=[3, 10], r_values=[1, 2], gamma=Fraction(1, 2))
    defaults.update(overrides)
    return TableSpec(**defaults)


def test_single_cell_trivial():
    result = generate_table(TableSpec(m_values=[1], r_values=[4]))
    assert result.cells == [[4]]


def test_single_cell_hand_derived():
    # P(3,1,1)=1, P(3,2,1)=2/3 >= 1/2, P(3,3,1)=6/27 < 1/2 -> 2.
    result = generate_table(TableSpec(m_values=[3], r_values=[1]))
    assert result.cells == [[2]]


def test_small_grid_values():
    result = generate_table(small_spec())
    assert result.cells == [[2, 4], [4, 9]]  # rows r = 1, 2; columns m = 3, 10


def test_spec_validation():
    with pytest.raises(ValueError):
        TableSpec(m_values=[], r_values=[1])
    with pytest.raises(ValueError):
        TableSpec(m_values=[3], r_values=[1], gamma=Fraction(2))
    # m and r are refused by the spec, before any cell or worker starts.
    with pytest.raises(ValueError, match="m must be >= 1"):
        TableSpec(m_values=[0, 10], r_values=[1, 2], jobs=2)
    with pytest.raises(ValueError, match="r must be >= 1"):
        TableSpec(m_values=[10], r_values=[2, 0])


def test_render_csv():
    result = generate_table(small_spec())
    text = render_csv(result)
    lines = text.splitlines()
    assert lines[0] == "r\\m,3,10"
    assert lines[1] == "1,2,4"
    assert lines[2] == "2,4,9"
    assert text.endswith("\n")


def test_render_markdown():
    result = generate_table(small_spec())
    lines = render_markdown(result).splitlines()
    assert lines[0] == "| r\\m | 3 | 10 |"
    assert lines[2] == "| 1 | 2 | 4 |"


def test_render_json():
    result = generate_table(small_spec())
    payload = json.loads(render_json(result))
    assert payload == {
        "gamma": "1/2",
        "algorithm": "column",
        "m_values": [3, 10],
        "r_values": [1, 2],
        "cells": [2, 4, 4, 9],
    }


def test_render_dispatch(monkeypatch):
    # render reads the format from the spec.
    result = generate_table(small_spec())
    assert render(result) == render_markdown(result)
    result.spec.output_format = "csv"
    assert render(result) == render_csv(result)
    # An unknown format is refused by the spec, before any cell runs.
    def no_cells(req):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(bbp.tabulator, "find_nmax", no_cells)
    with pytest.raises(ValueError, match="unknown output format 'yaml'"):
        generate_table(TableSpec(output_format="yaml"))


def test_table_cells_build_no_certificate(monkeypatch):
    # A cell keeps n_max alone, so no P(n) is read out as a Fraction.
    def no_readout(self, n, mm=None):
        raise AssertionError("a cell built a certificate")

    monkeypatch.setattr(bbp.solvers.ColumnContext, "prob", no_readout)
    assert generate_table(small_spec()).cells == [[2, 4], [4, 9]]


def test_deterministic_across_parallelism(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)  # a real pool on any machine
    serial = render_csv(generate_table(small_spec(jobs=1)))
    parallel = render_csv(generate_table(small_spec(jobs=3)))
    assert serial == parallel


class _RecordingContext:
    """A multiprocessing context that records how many workers each parallel
    generate_table starts (one shared counter each)."""

    def __init__(self, ctx):
        self._ctx = ctx
        self.started = []

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def Value(self, *args, **kwargs):
        self.started.append(0)
        return self._ctx.Value(*args, **kwargs)

    def Process(self, *args, **kwargs):
        self.started[-1] += 1
        return self._ctx.Process(*args, **kwargs)


@pytest.mark.parametrize("jobs, cpus, m_values, r_values, want", [
    (5000, 8, [3], [1], []),  # one cell: no worker at all
    (5000, 8, [3, 10], [1, 2], [4]),  # capped by the four cells
    (3, 2, [3, 10], [1, 2], [2]),  # capped by the cores
    (5000, 1, [3, 10], [1, 2], []),  # one core: serial
    (5000, None, [3, 10], [1, 2], []),  # core count unknown: serial
])
def test_jobs_capped_by_cells_and_cores(monkeypatch, jobs, cpus, m_values,
                                        r_values, want):
    recording = _RecordingContext(multiprocessing.get_context())
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: recording)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    grid = small_spec(m_values=m_values, r_values=r_values)
    serial = render_csv(generate_table(grid))
    grid.jobs = jobs
    assert render_csv(generate_table(grid)) == serial
    assert recording.started == want
    assert multiprocessing.active_children() == []


def test_spawned_workers_match_serial(monkeypatch):
    # Workers started by "spawn" (the macOS default) get their entry point and
    # arguments by pickling, not by inheriting the parent's memory.
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: spawn)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = render_csv(generate_table(small_spec()))
    assert render_csv(generate_table(small_spec(jobs=2))) == serial
    assert multiprocessing.active_children() == []


@pytest.fixture
def forked(monkeypatch):
    """Forked workers, which see the test's monkeypatches, on two cores."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _plant(monkeypatch, fault):
    """Make the cell m=10, r=2 call fault() instead of searching."""
    real = bbp.tabulator.find_nmax

    def find_nmax(req, certify=True):
        if (req.m, req.r) == (10, 2):
            fault()
        return real(req, certify=certify)

    monkeypatch.setattr(bbp.tabulator, "find_nmax", find_nmax)


@contextlib.contextmanager
def _deadline(seconds, exc_type):
    """Raise exc_type in this process once `seconds` of wall time pass."""
    def expire(signum, frame):
        raise exc_type("deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_shared_counter_hands_out_each_cell_once(forked):
    # More workers than cores race for the counter: a lost update would skip
    # a cell or compute one twice.
    cells = list(enumerate(SearchRequest(m, r) for m in range(1, 16)
                           for r in (1, 2, 3)))
    with _deadline(60, TimeoutError):
        pairs = bbp.tabulator._run_workers(cells, 6)
    assert sorted(i for i, _ in pairs) == list(range(len(cells)))
    assert dict(pairs) == {i: bbp.tabulator._cell_job(req) for i, req in cells}
    assert multiprocessing.active_children() == []


def test_worker_error_keeps_its_exit_code(forked, monkeypatch):
    def refuse():
        raise NegativeCountError("planted")

    _plant(monkeypatch, refuse)
    out, err = io.StringIO(), io.StringIO()
    argv = ["table", "--days", "3,10", "--max-per-day", "1,2", "--jobs", "2"]
    assert cli.run(argv, out=out, err=err) == 2
    assert err.getvalue() == "refused: planted\n" and out.getvalue() == ""
    assert multiprocessing.active_children() == []


def test_dead_worker_raises(forked, monkeypatch):
    _plant(monkeypatch, lambda: os._exit(1))
    with _deadline(20, TimeoutError):
        with pytest.raises(RuntimeError, match="exited with code 1"):
            generate_table(small_spec(jobs=2))
    assert multiprocessing.active_children() == []


def test_interrupt_stops_every_worker(forked, monkeypatch):
    _plant(monkeypatch, lambda: time.sleep(60))
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        with _deadline(1, KeyboardInterrupt):
            generate_table(small_spec(jobs=2))
    assert time.monotonic() - start < 20
    assert multiprocessing.active_children() == []


def test_cross_check_base_cases():
    report = cross_check(1, 3, 2)
    assert report.divergences == []
    assert report.instances_checked == 8  # m=1, n in 0..3, r in {1, 2}


def test_cross_check_refuses_each_bound():
    cross_check(1, 0, 1)  # the smallest grid: m=1, n=0, r=1
    for bounds in [(0, 3, 2), (3, -1, 2), (3, 3, 0)]:
        with pytest.raises(ValueError, match="xcheck requires"):
            cross_check(*bounds)


def test_cross_check_small_grid():
    report = cross_check(4, 6, 3)
    assert report.divergences == []
    assert report.instances_checked == 4 * 7 * 3
    assert report.oracle_checked == report.instances_checked
