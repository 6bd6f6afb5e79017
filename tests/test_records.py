"""The record classes: constructors, defaults, validation, equality, repr."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from bbp.search import SearchRequest, SearchResult
from bbp.solvers import Mode, ProblemInstance
from bbp.tabulator import (
    Divergence,
    TableResult,
    TableSpec,
    XCheckReport,
)


def test_default_construction():
    spec = TableSpec()
    assert spec.m_values == [10, 25, 50, 100, 200, 365, 500, 1000]
    assert spec.r_values == list(range(1, 11))
    assert spec.gamma == Fraction(1, 2)
    assert (spec.output_format, spec.float_above, spec.jobs) == ("markdown", None, 1)
    req = SearchRequest(365, 2)
    assert (req.m, req.r, req.gamma) == (365, 2, Fraction(1, 2))
    assert req.mode is Mode.EXACT
    report = XCheckReport(4, 5, 2)
    assert (report.instances_checked, report.oracle_checked) == (0, 0)
    assert report.divergences == []


def test_keyword_and_positional_construction():
    inst = ProblemInstance(m=365, n=22, r=1)
    assert inst == ProblemInstance(365, 22, 1)
    assert (inst.m, inst.n, inst.r) == (365, 22, 1)
    req = SearchRequest(m=365, r=2, gamma=Fraction(1, 3), mode=Mode.FLOAT)
    assert req == SearchRequest(365, 2, Fraction(1, 3), Mode.FLOAT)
    res = SearchResult(n_max=87, p_at_nmax=Fraction(1, 2), p_at_nmax_plus_1=Fraction(0))
    assert res == SearchResult(87, Fraction(1, 2), Fraction(0))
    spec = TableSpec(m_values=[3], r_values=[1, 2], gamma=Fraction(1, 4),
                     output_format="csv", float_above=2, jobs=2)
    assert spec == TableSpec([3], [1, 2], Fraction(1, 4), "csv", 2, 2)
    assert TableResult(spec=spec, cells=[[2], [3]]).cells[1][0] == 3


def test_equality_is_by_value_and_by_type():
    assert ProblemInstance(1, 2, 3) != ProblemInstance(1, 2, 4)
    assert SearchRequest(10, 1) != SearchRequest(10, 2)
    assert SearchRequest(10, 1) != SearchRequest(10, 1, mode=Mode.FLOAT)
    assert TableSpec() == TableSpec() and TableSpec() != TableSpec(jobs=2)
    assert TableResult(TableSpec(), [[1]]) != TableResult(TableSpec(), [[2]])
    div = Divergence(ProblemInstance(2, 2, 1), {"day": "1/2"})
    assert div == Divergence(ProblemInstance(2, 2, 1), {"day": "1/2"})
    assert div != Divergence(ProblemInstance(2, 2, 1), {"day": "1/3"})
    report = XCheckReport(1, 2, 3)
    report.divergences.append(div)
    assert report != XCheckReport(1, 2, 3)
    # Another type never compares equal, even with the same fields.
    assert SearchRequest(10, 1) != SimpleNamespace(
        m=10, r=1, gamma=Fraction(1, 2), mode=Mode.EXACT)


def test_repr_lists_the_fields():
    assert repr(ProblemInstance(1, 2, 3)) == "ProblemInstance(m=1, n=2, r=3)"
    assert repr(SearchRequest(365, 2)) == (
        "SearchRequest(m=365, r=2, gamma=Fraction(1, 2), mode=<Mode.EXACT: 'exact'>)")


def test_problem_instance_is_immutable_and_hashable():
    inst = ProblemInstance(1, 2, 3)
    assert hash(inst) == hash(ProblemInstance(1, 2, 3))
    assert {inst: "x"}[ProblemInstance(1, 2, 3)] == "x"
    with pytest.raises(AttributeError):
        inst.m = 5
    assert inst.m == 1


def test_validation_errors():
    with pytest.raises(ValueError, match="m must be >= 1"):
        ProblemInstance(0, 1, 1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        ProblemInstance(1, -1, 1)
    with pytest.raises(ValueError, match="r must be >= 1"):
        ProblemInstance(1, 1, 0)
    with pytest.raises(ValueError, match="gamma must lie in"):
        TableSpec(gamma=Fraction(0))
    with pytest.raises(ValueError, match="nonempty"):
        TableSpec(r_values=[])


def test_mutable_defaults_are_fresh_per_instance():
    a, b = XCheckReport(1, 1, 1), XCheckReport(1, 1, 1)
    a.divergences.append(Divergence(ProblemInstance(1, 1, 1), {}))
    assert b.divergences == [] and a.divergences
    s, t = TableSpec(), TableSpec()
    s.m_values.append(2000)
    s.r_values.clear()
    assert t == TableSpec() and TableSpec().m_values[-1] == 1000
