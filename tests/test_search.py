from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bbp.search import SearchRequest, SearchResult, find_nmax
from bbp.solvers import (
    AlgorithmId,
    Mode,
    ProblemInstance,
    StirlingContext,
    prob_exact,
)


def certificate_holds(m, r, gamma, result: SearchResult,
                      algorithm=AlgorithmId.STIRLING) -> bool:
    """Re-verify the boundary with an independently chosen algorithm."""
    lo = prob_exact(ProblemInstance(m, result.n_max, r), algorithm)
    hi = prob_exact(ProblemInstance(m, result.n_max + 1, r), algorithm)
    return (
        lo == result.p_at_nmax
        and hi == result.p_at_nmax_plus_1
        and lo >= gamma
        and hi < gamma
    )


def test_classic_birthday_values():
    result = find_nmax(SearchRequest(m=365, r=1))
    assert result.n_max == 22
    assert result.p_at_nmax >= Fraction(1, 2)
    assert result.p_at_nmax_plus_1 < Fraction(1, 2)


def test_small_published_cells():
    assert find_nmax(SearchRequest(m=10, r=2)).n_max == 9
    assert find_nmax(SearchRequest(m=10, r=3)).n_max == 15
    assert find_nmax(SearchRequest(m=25, r=1)).n_max == 6


def test_single_day_year():
    result = find_nmax(SearchRequest(m=1, r=5))
    assert result.n_max == 5
    assert result.p_at_nmax == 1
    assert result.p_at_nmax_plus_1 == 0


def test_certificates_verified_independently():
    gamma = Fraction(1, 2)
    for m, r in [(10, 1), (10, 3), (25, 2), (50, 1), (7, 4)]:
        result = find_nmax(SearchRequest(m=m, r=r, gamma=gamma))
        assert certificate_holds(m, r, gamma, result), (m, r)


def test_gamma_one():
    # P(m, r, r) = 1 and P(m, r+1, r) < 1 for m >= 2.
    for m in (2, 5, 30):
        for r in (1, 2, 4):
            result = find_nmax(SearchRequest(m=m, r=r, gamma=Fraction(1)))
            assert result.n_max == r, (m, r)
    assert find_nmax(SearchRequest(m=1, r=3, gamma=Fraction(1))).n_max == 3


def test_gamma_validation():
    with pytest.raises(ValueError):
        find_nmax(SearchRequest(m=10, r=1, gamma=Fraction(0)))
    with pytest.raises(ValueError):
        find_nmax(SearchRequest(m=10, r=1, gamma=Fraction(-1, 2)))
    with pytest.raises(ValueError):
        find_nmax(SearchRequest(m=10, r=1, gamma=Fraction(3, 2)))


def test_float_mode_matches_exact():
    for m, r in [(10, 2), (50, 1), (100, 3), (25, 5)]:
        exact = find_nmax(SearchRequest(m=m, r=r))
        fast = find_nmax(SearchRequest(m=m, r=r, mode=Mode.FLOAT))
        assert fast.n_max == exact.n_max
        # The float path must still deliver an exact certificate.
        assert fast.p_at_nmax == exact.p_at_nmax
        assert fast.p_at_nmax_plus_1 == exact.p_at_nmax_plus_1


def test_monotone_in_r_and_m():
    gamma = Fraction(1, 2)
    for m in (10, 25):
        values = [find_nmax(SearchRequest(m=m, r=r, gamma=gamma)).n_max
                  for r in range(1, 6)]
        assert values == sorted(values)
    for r in (1, 3):
        values = [find_nmax(SearchRequest(m=m, r=r, gamma=gamma)).n_max
                  for m in (5, 10, 25, 50)]
        assert values == sorted(values)


@st.composite
def open_unit_fractions(draw):
    """A rational in (0, 1]."""
    den = draw(st.integers(1, 10 ** 6))
    return Fraction(draw(st.integers(1, den)), den)


@pytest.mark.parametrize("case", ["random", "attained", "below_floor"])
@settings(deadline=None)
@given(m=st.integers(1, 25), r=st.integers(1, 5), data=st.data())
def test_nmax_matches_stirling_scan(case, m, r, data):
    # P(m, n, r) for n = 0..m*r+1 by the Stirling route; the last is 0.
    ctx = StirlingContext(m, r)
    probs = [ctx.prob(n) for n in range(m * r + 2)]
    if case == "random":
        gamma = data.draw(open_unit_fractions())
    elif case == "attained":
        gamma = probs[data.draw(st.integers(0, m * r))]  # the tie counts as >=
    else:
        gamma = probs[m * r] * data.draw(open_unit_fractions().filter(lambda g: g < 1))
    expected = max(n for n, p in enumerate(probs) if p >= gamma)
    if case == "below_floor":
        assert expected == m * r and probs[expected + 1] == 0
    for mode in (Mode.EXACT, Mode.FLOAT):
        result = find_nmax(SearchRequest(m=m, r=r, gamma=gamma, mode=mode))
        assert result == SearchResult(expected, probs[expected], probs[expected + 1]), mode
