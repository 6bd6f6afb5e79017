import json
from fractions import Fraction

import pytest

from bbp.solvers import AlgorithmId, ProblemInstance
from bbp.tabulator import (
    TableSpec,
    benchmark,
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
    assert result.cell(r=1, m=3) == 2
    assert result.cell(r=1, m=10) == 4
    assert result.cell(r=2, m=10) == 9


def test_spec_validation():
    with pytest.raises(ValueError):
        TableSpec(m_values=[], r_values=[1])
    with pytest.raises(ValueError):
        TableSpec(m_values=[3], r_values=[1], gamma=Fraction(2))


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


def test_render_dispatch():
    result = generate_table(small_spec())
    assert render(result) == render_markdown(result)
    assert render(result, "csv") == render_csv(result)
    with pytest.raises(ValueError):
        render(result, "yaml")


def test_deterministic_across_parallelism():
    serial = render_csv(generate_table(small_spec(jobs=1)))
    parallel = render_csv(generate_table(small_spec(jobs=3)))
    assert serial == parallel


def test_cross_check_base_cases():
    report = cross_check(1, 3, 2)
    assert report.passed
    assert report.instances_checked == 8  # m=1, n in 0..3, r in {1, 2}


def test_cross_check_small_grid():
    report = cross_check(4, 6, 3)
    assert report.passed
    assert report.instances_checked == 4 * 7 * 3
    assert report.oracle_checked == report.instances_checked


def test_benchmark_structure():
    inst = ProblemInstance(10, 8, 2)
    report = benchmark([inst], [AlgorithmId.STIRLING, AlgorithmId.DIRECT],
                       repetitions=1, timeout=60.0)
    # stirling (exact) + direct (exact and float) = 3 rows.
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.seconds is None or row.seconds >= 0
        assert not row.timed_out
    assert "direct(float)" in report.note


def test_benchmark_empty_algorithms():
    report = benchmark([ProblemInstance(5, 3, 2)], [], repetitions=1)
    assert report.rows == []


def test_benchmark_excludes_oversized_oracle():
    big = ProblemInstance(365, 23, 1)
    report = benchmark([big], [AlgorithmId.BRUTE_FORCE], repetitions=1)
    assert report.rows == []
