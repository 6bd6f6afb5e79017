import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bbp.search
from bbp.search import SearchRequest, SearchResult, find_nmax
from bbp.solvers import (
    AlgorithmId,
    ColumnContext,
    DirectContext,
    Mode,
    ProblemInstance,
    StirlingContext,
    prob_exact,
)
from bbp.tabulator import TableSpec
from oracles import two_day_count


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
    # find_nmax and TableSpec share one range check and one message.
    for gamma in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match=r"^gamma must lie in \(0, 1\]$"):
            find_nmax(SearchRequest(m=10, r=1, gamma=gamma))
        with pytest.raises(ValueError, match=r"^gamma must lie in \(0, 1\]$"):
            TableSpec(m_values=[10], r_values=[1], gamma=gamma)


def test_float_mode_matches_exact():
    # 1 - 10^-25 rounds to 1.0 as a float, so at (10^4, 5) the float walk
    # guesses 17, the exact check refutes it, and the column search finds
    # n_max = 5.
    half, near_one = Fraction(1, 2), Fraction(10 ** 25 - 1, 10 ** 25)
    for m, r, gamma in [(10, 2, half), (50, 1, half), (100, 3, half),
                        (25, 5, half), (10000, 5, near_one)]:
        exact = find_nmax(SearchRequest(m=m, r=r, gamma=gamma))
        fast = find_nmax(SearchRequest(m=m, r=r, gamma=gamma, mode=Mode.FLOAT))
        assert fast.n_max == exact.n_max
        # The float path must still deliver an exact certificate.
        assert fast.p_at_nmax == exact.p_at_nmax
        assert fast.p_at_nmax_plus_1 == exact.p_at_nmax_plus_1


def float_guessing(guess):
    """A stand-in FloatDirectContext whose float P is 1 up to guess, then 0."""

    class Guessing:
        def __init__(self, m, r):
            pass

        def prob(self, n):
            return 1.0 if n <= guess else 0.0

    return Guessing


@pytest.mark.parametrize("m, r", [(10, 2), (50, 3), (7, 4), (100, 2)])
def test_float_mode_checks_its_guess(monkeypatch, m, r):
    # A wrong guess, too low, too high or at either end, falls back to the
    # column search; the right one is certified by the direct fill alone.
    columns = []

    class SpiedColumn(ColumnContext):
        def __init__(self, m, r):
            super().__init__(m, r)
            columns.append(self)

    monkeypatch.setattr(bbp.search, "ColumnContext", SpiedColumn)
    k = find_nmax(SearchRequest(m=m, r=r)).n_max
    attained = ColumnContext(m, r).prob(k)
    for gamma in (Fraction(1, 2), attained):
        for certify in (True, False):
            exact = find_nmax(SearchRequest(m=m, r=r, gamma=gamma), certify)
            assert exact.n_max == k
            for guess in (k - 3, k + 3, 0, m * r, k):
                monkeypatch.setattr(bbp.search, "FloatDirectContext",
                                    float_guessing(guess))
                columns.clear()
                fast = find_nmax(SearchRequest(m=m, r=r, gamma=gamma,
                                               mode=Mode.FLOAT), certify)
                assert fast == exact, (gamma, certify, guess)
                assert len(columns) == (guess != k), (gamma, certify, guess)


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


@settings(deadline=None)
@given(m=st.integers(1, 80), r=st.integers(1, 14), gamma=open_unit_fractions(),
       extra=st.integers(0, 30))
def test_column_stopped_by_below_resumes_like_fresh(m, r, gamma, extra):
    stopped, fresh = ColumnContext(m, r), ColumnContext(m, r)
    n_stop = stopped.extend(m * r + 1, below=gamma)
    n_top = stopped.extend(n_stop + extra)
    assert n_top == n_stop + extra
    probs = [fresh.prob(n) for n in range(n_top + 1)]
    assert probs[n_stop] < gamma and all(p >= gamma for p in probs[:n_stop])
    for n in range(max(0, n_top - r), n_top + 1):
        assert stopped.count(n) == fresh.count(n), n
        assert stopped.prob(n) == probs[n], n


@settings(deadline=None)
@given(m=st.integers(1, 40), r=st.integers(1, 10), first=open_unit_fractions(),
       second=open_unit_fractions(), extra=st.integers(0, 30))
def test_column_resumes_across_thresholds(m, r, first, second, extra):
    # One window serves a second threshold and then a plain extend.
    ctx, fresh = ColumnContext(m, r), ColumnContext(m, r)
    n1 = ctx.extend(m * r + 1, below=first)
    n2 = ctx.extend(m * r + 1 + extra, below=second)
    n3 = ctx.extend(n2 + extra)
    probs = [fresh.prob(n) for n in range(n3 + 1)]
    assert n1 == next(n for n in range(1, m * r + 2) if probs[n] < first)
    assert n2 == next((n for n in range(n1 + 1, m * r + 2 + extra)
                       if probs[n] < second), max(n1, m * r + 1 + extra))
    assert n3 == n2 + extra
    for n in range(max(0, n3 - r), n3 + 1):
        assert ctx.count(n) == fresh.count(n), n
        assert ctx.prob(n) == probs[n], n


@pytest.mark.parametrize("m, r", [(365, 1), (50, 3), (200, 2), (30, 7)])
def test_nmax_with_a_150_bit_denominator(m, r):
    # Thresholds one 150-bit step either side of an attained P(m, k).
    scan = DirectContext(m, r, keep_all=True)
    scan.extend(m * r + 1)
    probs = [scan.prob(n) for n in range(m * r + 2)]
    k = find_nmax(SearchRequest(m=m, r=r)).n_max
    den = 3 ** 95  # 151 bits, and no factor in common with a power of 2
    scaled = probs[k] * den
    for num in (math.floor(scaled), math.ceil(scaled), math.ceil(scaled) + 1):
        gamma = Fraction(num, den)
        assert gamma.denominator.bit_length() >= 145
        n = max(n for n, p in enumerate(probs) if p >= gamma)
        result = find_nmax(SearchRequest(m=m, r=r, gamma=gamma))
        assert result == SearchResult(n, probs[n], probs[n + 1]), num


@pytest.mark.parametrize("case", ["random", "attained"])
@settings(deadline=None, max_examples=25)
@given(m=st.integers(1, 200), r=st.integers(1, 6), data=st.data())
def test_nmax_matches_column_prob_scan(case, m, r, data):
    if case == "random":
        gamma = data.draw(open_unit_fractions())
    else:  # P at some n <= m*r, so the tie counts as >=
        gamma = ColumnContext(m, r).prob(data.draw(st.integers(0, m * r)))
    scan = ColumnContext(m, r)
    n = 0
    while scan.prob(n + 1) >= gamma:
        n += 1
    result = find_nmax(SearchRequest(m=m, r=r, gamma=gamma))
    assert result == SearchResult(n, scan.prob(n), scan.prob(n + 1))


@pytest.mark.parametrize("m, r", [(365, 10), (30, 40)])
def test_nmax_past_the_egf_switch_at_attained_gamma(m, r):
    # gamma = P(n_max) and 10^-40 either side of it, far inside the float
    # test's margin, so the exact compare decides each stop.
    k = find_nmax(SearchRequest(m=m, r=r)).n_max
    column = ColumnContext(m, r)
    column.extend(k - 1)
    assert column._egf is not None  # the walk is past the switch
    direct = DirectContext(m, r)
    probs = {n: direct.prob(n) for n in (k - 1, k, k + 1)}
    eps = Fraction(1, 10 ** 40)
    for gamma, n in [(probs[k], k), (probs[k] + eps, k - 1), (probs[k] - eps, k)]:
        result = find_nmax(SearchRequest(m=m, r=r, gamma=gamma))
        assert result == SearchResult(n, probs[n], probs[n + 1]), gamma


def test_nmax_stops_past_the_egf_switch_on_a_zero_probability():
    # P(30, n, 100) stays above 10^-41 up to n = m*r, so the EGF walk stops
    # on P(m*r + 1) = 0, which has no log2.  Filling m*r gives every day r.
    m, r = 30, 100
    result = find_nmax(SearchRequest(m=m, r=r, gamma=Fraction(1, 10 ** 41)))
    full = Fraction(math.factorial(m * r), math.factorial(r) ** m * m ** (m * r))
    assert result == SearchResult(m * r, full, Fraction(0))


@pytest.mark.parametrize("r", [100, 300])
def test_nmax_at_two_days_matches_the_closed_form(r):
    # P(2, n, r) = N(2, n, r) / 2**n falls with n; scan the closed form for
    # the last n at or above 1/2.
    def p(n):
        return Fraction(two_day_count(n, r), 2 ** n)

    n = 0
    while p(n + 1) >= Fraction(1, 2):
        n += 1
    assert find_nmax(SearchRequest(2, r)) == SearchResult(n, p(n), p(n + 1))
