import ast
import importlib
import io
import math
import pathlib
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import bbp
import bbp.oracles
import bbp.solvers
from bbp.cli import run
from bbp.exact_arith import big_int_strings
from bbp.solvers import (
    AlgorithmId,
    ColumnContext,
    CountingContext,
    DayContext,
    DirectContext,
    FloatDirectContext,
    InstanceTooLargeError,
    ProblemInstance,
    StirlingContext,
    bounded_composition_count,
    count_bruteforce,
    count_exact,
    count_valid_stirling,
    make_context,
    prob_bruteforce,
    prob_exact,
)
from bbp.stirling import (NegativeCountError, RestrictedStirling, restricted_stirling2,
                          stirling2)
from oracles import (
    assignments_count_exact_k,
    assignments_prob,
    coeff_direct,
    miller_counts,
    one_day_over_count,
    two_day_count,
)

ALL_CONTEXTS = [DayContext, CountingContext, StirlingContext, DirectContext,
                FloatDirectContext, ColumnContext]


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(0, 1, 1)
    with pytest.raises(ValueError):
        ProblemInstance(1, -1, 1)
    with pytest.raises(ValueError):
        ProblemInstance(1, 1, 0)


@pytest.mark.parametrize("make", ALL_CONTEXTS)
def test_contexts_refuse_m_or_r_below_1(make):
    for m, r in [(0, 2), (-1, 2), (3, 0), (3, -2)]:
        with pytest.raises(ValueError, match=make.__name__ + " requires m >= 1"):
            make(m, r)


# ---------------------------------------------------------------------------
# Brute force


def test_bruteforce_examples():
    # Frozen from full assignment enumeration (9 assignments, 6 valid; etc).
    assert assignments_prob(3, 2, 1) == Fraction(2, 3)
    assert prob_bruteforce(ProblemInstance(3, 2, 1)) == Fraction(2, 3)
    assert assignments_prob(2, 3, 2) == Fraction(3, 4)
    assert prob_bruteforce(ProblemInstance(2, 3, 2)) == Fraction(3, 4)
    assert prob_bruteforce(ProblemInstance(5, 0, 1)) == 1


def test_bruteforce_matches_assignment_enumeration():
    for m in range(1, 5):
        for n in range(0, 6):
            for r in range(1, 4):
                assert prob_bruteforce(ProblemInstance(m, n, r)) == assignments_prob(
                    m, n, r
                ), (m, n, r)


def test_bruteforce_guard(monkeypatch):
    with pytest.raises(InstanceTooLargeError):
        prob_bruteforce(ProblemInstance(365, 23, 1))
    monkeypatch.setattr(bbp.oracles, "DEFAULT_ORACLE_LIMIT", 10)
    with pytest.raises(InstanceTooLargeError, match="more than 10 "):
        prob_bruteforce(ProblemInstance(10, 10, 5))


def test_bruteforce_enumerates_only_valid_branches(monkeypatch):
    # Every branch of the enumeration ends in a bounded composition, so it
    # takes at most m binomials per composition: here 2 * 1501, where trying
    # every k at the last bin would take about 1.1 million.
    m, n, r = 2, 1500, 1500
    limit = m * bounded_composition_count(m, n, r)
    comb, calls = math.comb, 0

    def counted_comb(a, b):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise AssertionError("more than %d binomials" % limit)
        return comb(a, b)

    monkeypatch.setattr(bbp.solvers.math, "comb", counted_comb)
    assert prob_bruteforce(ProblemInstance(m, n, r)) == 1


def test_bounded_composition_count():
    # All compositions of 3 into 2 parts of size <= 2: (1,2), (2,1).
    assert bounded_composition_count(2, 3, 2) == 2
    assert bounded_composition_count(3, 2, 1) == 3
    assert bounded_composition_count(4, 0, 1) == 1
    # Unbounded cap: C(n + m - 1, m - 1).
    assert bounded_composition_count(5, 7, 7) == math.comb(11, 4)


def test_bounded_composition_count_matches_enumeration():
    # Every tuple of day counts in 0..r, tallied by its sum.
    for m in range(1, 7):
        for r in range(1, 5):
            sums = [0] * (m * r + 15)
            for days in product(range(r + 1), repeat=m):
                sums[sum(days)] += 1
            for n in range(15):
                assert bounded_composition_count(m, n, r) == sums[n], (m, n, r)
                if n <= m * r:  # symmetric under n -> m r - n
                    assert bounded_composition_count(m, m * r - n, r) == sums[n]


def test_bruteforce_refuses_large_r_from_the_count_alone():
    # About 1.5e322 compositions, counted in three terms: a dynamic program
    # over days, people and day counts takes about a minute here.
    with pytest.raises(InstanceTooLargeError):
        prob_bruteforce(ProblemInstance(200, 3000, 1000))


def test_bruteforce_handles_a_thousand_occupied_days():
    # One composition, all days at the cap: no recursion 1000 days deep.
    inst = ProblemInstance(1000, 1000, 1)
    assert prob_bruteforce(inst) == prob_exact(inst, AlgorithmId.COLUMN)


def test_bruteforce_walks_occupied_days_only(monkeypatch):
    # (600, 2, 1) has 179,700 compositions with two occupied days each:
    # at most n binomials per composition plus the guard's, where walking
    # every day, empty ones too, takes 36 million.
    m, n, r = 600, 2, 1
    compositions = bounded_composition_count(m, n, r)
    guard_terms = min(n, m * r - n) // (r + 1) + 1
    limit = n * compositions + 2 * guard_terms
    comb, calls = math.comb, 0

    def counted_comb(a, b):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise AssertionError("more than %d binomials" % limit)
        return comb(a, b)

    monkeypatch.setattr(bbp.solvers.math, "comb", counted_comb)
    assert prob_bruteforce(ProblemInstance(m, n, r)) == Fraction(599, 600)


# ---------------------------------------------------------------------------
# Day-at-a-time recurrence


def test_day_recurrence_base_cases():
    assert DayContext(1, 3).prob(5) == 0
    assert DayContext(1, 3).prob(3) == 1
    assert DayContext(7, 2).prob(0) == 1
    assert DayContext(4, 4).prob(4) == 1


def test_day_recurrence_equals_oracle():
    assert DayContext(3, 1).prob(2) == Fraction(2, 3)
    for m in range(1, 5):
        for n in range(0, 6):
            for r in range(1, 4):
                assert DayContext(m, r).prob(n) == assignments_prob(m, n, r), (m, n, r)


def test_day_counts_equal_bruteforce():
    for r in range(1, 4):
        day = DayContext(4, r)
        for m in range(1, 5):
            for n in range(0, 6):
                assert day.count(n, m) == count_bruteforce(
                    ProblemInstance(m, n, r)), (m, n, r)


# ---------------------------------------------------------------------------
# Counting recurrence


def test_count_T_examples():
    # Frozen from assignment enumeration restricted to exactly k used days;
    # T(m, n, k, r) is read at the frontier of a fresh window-mode context.
    assert assignments_count_exact_k(3, 2, 2, 1) == 6
    assert CountingContext(3, 1).t_value(3, 2, 2) == 6
    assert assignments_count_exact_k(2, 4, 2, 2) == 6
    assert CountingContext(2, 2).t_value(2, 4, 2) == 6  # subtraction branch active
    assert CountingContext(2, 1).t_value(2, 3, 2) == 0  # n > k*r
    assert CountingContext(3, 2).t_value(3, 0, 0) == 1
    assert CountingContext(3, 2).t_value(3, 2, 0) == 0
    assert CountingContext(2, 2).t_value(2, 3, 3) == 0  # k > m


def test_count_T_matches_assignment_enumeration():
    for m in range(1, 4):
        for r in range(1, 4):
            ctx = CountingContext(m, r, keep_all=True)
            for n in range(0, 5):
                for k in range(0, n + 2):
                    assert ctx.t_value(m, n, k) == assignments_count_exact_k(
                        m, n, k, r
                    ), (m, n, k, r)


def test_count_exact_counting_examples():
    assert count_exact(ProblemInstance(3, 2, 1), AlgorithmId.COUNTING) == 6
    assert count_exact(ProblemInstance(2, 3, 2), AlgorithmId.COUNTING) == 6
    assert count_exact(ProblemInstance(5, 0, 2), AlgorithmId.COUNTING) == 1


def test_prob_counting_examples():
    assert CountingContext(3, 1).prob(2) == Fraction(2, 3)
    assert CountingContext(2, 2).prob(3) == Fraction(3, 4)
    assert CountingContext(7, 1).prob(0) == 1


# ---------------------------------------------------------------------------
# Restricted-Stirling route


def test_count_valid_stirling_examples():
    assert count_valid_stirling(ProblemInstance(3, 2, 1)) == 6
    # C(2,2) * 2! * {4,2}_{<=2} with {4,2}_{<=2} = 3 by hand enumeration:
    # {12|34, 13|24, 14|23}.
    assert restricted_stirling2(4, 2, 2) == 3
    assert count_valid_stirling(ProblemInstance(2, 4, 2)) == 6
    assert count_valid_stirling(ProblemInstance(4, 0, 3)) == 1
    # Pigeonhole: answered without filling 10**7 rows.
    assert count_valid_stirling(ProblemInstance(2, 10 ** 7, 1)) == 0


def test_prob_stirling_examples():
    assert StirlingContext(3, 1).prob(2) == Fraction(2, 3)
    assert StirlingContext(2, 2).prob(4) == Fraction(3, 8)
    assert StirlingContext(1, 1).prob(1) == 1


def test_stirling_context_refuses_larger_m():
    # Its Stirling rows stop at k = m; reads at mm <= m stay exact.
    ctx = StirlingContext(4, 3, keep_all=True)
    for mm in range(1, 5):
        for n in range(10):
            assert ctx.count(n, mm) == count_bruteforce(ProblemInstance(mm, n, 3))
    small = StirlingContext(2, 3, keep_all=True)
    small.extend(4)
    for n, mm in [(4, 4), (4, 3), (0, 3)]:  # N(4, 4, 3) = 252, not 84
        with pytest.raises(ValueError):
            small.count(n, mm)
        with pytest.raises(ValueError):
            small.prob(n, mm)


@settings(deadline=None, max_examples=40)
@given(data=st.data(), m=st.integers(1, 200), r=st.integers(1, 10))
def test_stirling_window_matches_column(data, m, r):
    # One window context read at rising n sums each row as it is filled.
    ns = sorted(data.draw(st.lists(st.integers(0, 400), min_size=1, max_size=6)))
    stirling, column = StirlingContext(m, r), ColumnContext(m, r)
    for n in ns:
        assert stirling.count(n) == column.count(n), (m, r, n)
        assert stirling.prob(n) == column.prob(n), (m, r, n)


def test_stirling_window_refuses_a_dropped_top_read():
    # r = 3 keeps rows 37..40 once the fill reaches 40, and no count history;
    # the counting and direct windows refuse the same reads at mm = m.
    for make in (StirlingContext, CountingContext, DirectContext):
        ctx, full = make(20, 3), make(20, 3, keep_all=True)
        assert ctx.count(40) == full.count(40)
        assert ctx.count(37) == full.count(37)
        for n in (36, 5):
            with pytest.raises(ValueError):
                ctx.count(n)
            with pytest.raises(ValueError):
                ctx.prob(n, 20)
    stirling = StirlingContext(20, 3)
    stirling.extend(40)
    assert stirling.count(0) == 1 and stirling.prob(0, 20) == 1  # n = 0 needs no row


SUB_M_CONTEXTS = [CountingContext, DirectContext, StirlingContext, DayContext]


@pytest.mark.parametrize("keep_all", [False, True])
@pytest.mark.parametrize("make", SUB_M_CONTEXTS)
def test_contexts_refuse_mm_outside_0_to_m(make, keep_all):
    # A negative mm used to index a layer from its end: count(3, -1) read
    # N(5, 3) = 120 on the counting and direct routes, and DayContext's
    # prob(3, -1) read P(5, 3) = 24/25.  DayContext always keeps every row.
    ctx = make(5, 2) if make is DayContext else make(5, 2, keep_all=keep_all)
    for mm in (-1, 6):
        for n in (0, 3):
            for read in (ctx.count, ctx.prob):
                with pytest.raises(ValueError):
                    read(n, mm)
    if make is CountingContext:
        for mm in (-1, 6):
            with pytest.raises(ValueError):
                ctx.t_value(mm, 3, 1)
    assert ctx.prob(3) == ctx.prob(3, 5) == Fraction(24, 25)
    assert ctx.count(3) == ctx.count(3, 5) == 120  # 5**3 less 5 triples
    if ctx.top_only:  # a window DirectContext holds mm = m alone
        with pytest.raises(ValueError):
            ctx.count(3, 0)
    else:
        assert ctx.count(3, 0) == 0


@pytest.mark.parametrize("make", SUB_M_CONTEXTS)
def test_prob_at_zero_days(make):
    # P(0, n) has no sample space for n > 0: it used to raise
    # ZeroDivisionError (IndexError on DayContext).  P(0, 0) is 1.  A window
    # DirectContext holds mm = m alone, so it is built with keep_all.
    ctx = make(5, 2, keep_all=True) if make is DirectContext else make(5, 2)
    assert ctx.prob(0, 0) == 1
    for n in (1, 3):
        with pytest.raises(ValueError, match=r"P\(0, n\) is undefined for n > 0"):
            ctx.prob(n, 0)
    assert ctx.count(0, 0) == 1
    assert ctx.count(3, 0) == 0


def test_structural_identity_small():
    # T(m, n, k, r) == C(m, k) * k! * {n, k}_{<=r}
    for m in range(1, 7):
        for r in range(1, 4):
            ctx = CountingContext(m, r, keep_all=True)
            for n in range(0, 8):
                for k in range(0, min(m, n) + 1):
                    assert ctx.t_value(m, n, k) == math.comb(m, k) * math.factorial(
                        k
                    ) * restricted_stirling2(n, k, r), (m, n, k, r)


# ---------------------------------------------------------------------------
# Direct recurrence


def test_prob_direct_examples():
    assert DirectContext(2, 2).prob(3) == Fraction(3, 4)
    assert DirectContext(10, 1).prob(200) == 0  # pigeonhole
    assert DirectContext(6, 4).prob(2) == 1  # cap never binds


def test_prob_direct_classic_birthday_boundary():
    ctx = DirectContext(365, 1)
    assert ctx.prob(22) >= Fraction(1, 2)
    assert ctx.prob(23) < Fraction(1, 2)


def test_direct_equals_oracle():
    for m in range(1, 5):
        for n in range(0, 6):
            for r in range(1, 4):
                assert DirectContext(m, r).prob(n) == assignments_prob(
                    m, n, r
                ), (m, n, r)


def test_direct_context_counts_match_counting():
    # 25 = 5**2 by hand: no day can hold 3 of 2 birthdays.
    assert CountingContext(5, 2).count(2) == 25
    for r in (1, 2, 3):
        direct = DirectContext(6, r, keep_all=True)
        counting = CountingContext(6, r, keep_all=True)
        for ctx in (direct, counting):
            ctx.extend(10)
        for m in range(1, 7):
            for n in range(0, 11):
                assert direct.count(n, m) == counting.count(n, m), (m, n, r)
            # Window mode, read at the frontier of fresh contexts.
            for n in range(0, 11):
                frontier = DirectContext(m, r).count(n)
                assert CountingContext(m, r).count(n) == frontier, (m, n, r)
                assert frontier == direct.count(n, m), (m, n, r)


def test_direct_fill_is_a_cone():
    # T(m, n) reaches one mm lower every r+1 layers, so a window fill at
    # m = 10**6 holds about n/(r+1) values of mm per layer, not 10**6.
    m = 10 ** 6
    for r in (1, 2, 5, 10):
        column = ColumnContext(m, r)
        for n in range(65):
            direct = DirectContext(m, r)
            assert direct.prob(n) == column.prob(n), (n, r)
            widest = max(len(layer) for layer in direct._layers.items)
            assert widest <= n // (r + 1) + 2, (n, r, widest)


@settings(deadline=None, max_examples=150)
@given(data=st.data(),
       m=st.one_of(st.integers(1, 30), st.integers(1, 10 ** 6)),
       r=st.integers(1, 10))
def test_direct_window_matches_column_and_keep_all(data, m, r):
    ns = sorted(data.draw(st.lists(st.integers(0, 80), min_size=1, max_size=8)))
    assert DirectContext(m, r).prob(ns[-1]) == ColumnContext(m, r).prob(ns[-1])
    # One context read at rising n crosses its horizon and refills; at
    # small m, it refuses a sub-m read and agrees with keep_all at the top.
    shared, column = DirectContext(m, r), ColumnContext(m, r)
    full = DirectContext(m, r, keep_all=True) if m <= 30 else None
    for n in ns:
        assert shared.count(n) == column.count(n), (m, r, n)
        if full is not None and data.draw(st.booleans()):
            mm = data.draw(st.integers(1, m))
            if mm < m:
                with pytest.raises(ValueError):
                    shared.count(n, mm)
            assert full.count(n, m) == shared.count(n), (m, r, n)
            assert shared.prob(n) == column.prob(n), (m, r, n)


# ---------------------------------------------------------------------------
# Column recurrence


def test_column_counts_match_direct_sweep():
    for r in range(1, 6):
        direct = DirectContext(30, r, keep_all=True)
        direct.extend(40)
        for m in range(1, 31):
            column = ColumnContext(m, r)
            for n in range(41):
                assert column.count(n) == direct.count(n, m), (m, n, r)


def test_column_equals_bruteforce_oracle():
    for m in range(1, 6):
        for r in range(1, 5):
            column = ColumnContext(m, r)
            for n in range(9):
                assert column.count(n) == count_bruteforce(
                    ProblemInstance(m, n, r)), (m, n, r)


def test_column_closed_forms():
    for m in range(1, 16):
        for r in range(1, 6):
            column = ColumnContext(m, r)
            for n in range(m * r + 4):
                count = column.count(n)
                if r == 1:
                    assert count == math.perm(m, n), (m, n)
                if n == m * r:
                    assert count == (math.factorial(m * r)
                                     // math.factorial(r) ** m), (m, r)
                if n <= r:
                    assert count == m ** n, (m, n, r)
                if n > m * r:
                    assert count == 0, (m, n, r)


@settings(deadline=None)
@given(m=st.integers(1, 60), r=st.integers(1, 8))
def test_column_prob_nonincreasing_in_n(m, r):
    column = ColumnContext(m, r)
    probs = [column.prob(n) for n in range(m * r + 3)]
    assert probs[0] == 1 and probs[-1] == 0
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_column_refuses_other_m():
    # A window DirectContext holds mm = m alone too: at m = 10**6, a sub-m
    # read used to refill it at full width for seconds.
    for ctx in (ColumnContext(10, 2), DirectContext(10, 2), DirectContext(10 ** 6, 2)):
        m = ctx.m
        assert ctx.count(5, m) == ctx.count(5)
        with pytest.raises(ValueError):
            ctx.count(5, m - 1)
        with pytest.raises(ValueError):
            ctx.prob(5, m + 1)
    with pytest.raises(ValueError):
        ColumnContext(0, 2)


@pytest.mark.parametrize("r", [1, 2, 3, 5, 10, 12, 13, 20, 25])
def test_column_step_matches_miller_form(monkeypatch, r):
    # With the EGF step forced after 4 bits, and with its switch (3000
    # bits) never reached: every count here is below 365**300.
    for switch_bits in (4, bbp.solvers.EGF_SWITCH_BITS):
        monkeypatch.setattr(bbp.solvers, "EGF_SWITCH_BITS", switch_bits)
        for m in (1, 2, 3, 7, 30, 365):
            top = min(m * r + 3, 300)
            column = ColumnContext(m, r)
            want = miller_counts(m, r, top)
            assert [column.count(n) for n in range(top + 1)] == want, m
            assert (column._egf is not None) == (max(want) > 1 << switch_bits)
            if top == m * r + 3:
                assert want[m * r] > 0 and want[m * r + 1:] == [0, 0, 0], m


def test_column_fill_guards_exactness():
    # A count off by one drives the fill negative by the time it passes
    # m*r, where every true count is 0.
    for delta in (1, -1):
        column = ColumnContext(3, 2)
        column.extend(2)
        column._counts.items[-1] += delta  # N_2
        with pytest.raises(NegativeCountError):
            column.extend(9)


def test_egf_fill_guards_exactness():
    # A V_400 off by one moves the sum for 401 V_401 by c_1(401) = (366 -
    # 401) g(401) = -70, which leaves a remainder in the next division by n.
    for delta in (1, -1):
        column = ColumnContext(365, 10)
        column.extend(400)
        assert column._egf is not None
        column._counts.items[-1] += delta
        with pytest.raises(NegativeCountError, match="n=401"):
            column.extend(401)


@pytest.mark.parametrize("make, kept", [
    (lambda: CountingContext(3, 2, keep_all=True), lambda ctx: (ctx._layers[2][3], -1)),
    # A direct layer is held from the top: index 0 is mm = m.
    (lambda: DirectContext(3, 2, keep_all=True), lambda ctx: (ctx._layers[2], 0)),
    # {2, 2} = 1, a held count: past k = n a full-width row holds zeros.
    (lambda: RestrictedStirling(2, k_cap=3, keep_all=True), lambda ctx: (ctx._rows[2], 2)),
])
def test_layered_fills_guard_exactness(make, kept):
    # A kept count far too small drives the next layer negative.
    ctx = make()
    ctx.extend(2)
    layer, i = kept(ctx)
    layer[i] -= 10 ** 6
    with pytest.raises(NegativeCountError):
        ctx.extend(12)


@pytest.mark.parametrize("m, r", [(1, 1), (3, 2), (4, 3), (6, 5), (5, 8)])
def test_layered_fills_before_the_first_back_layer(m, r):
    # For nn <= r no layer nn-1-r exists: c = C(nn-1, r) = 0 and Layers.fill
    # hands each step prev as back.  No cap binds there, so every fill holds
    # its uncapped value; at nn = r + 1 the first real back layer enters.
    k_cap = m + r + 2  # past every nn filled: those k read row zeros
    stirling = RestrictedStirling(r, k_cap, keep_all=True)
    counting = CountingContext(m, r, keep_all=True)
    direct = DirectContext(m, r, keep_all=True)
    grid = FloatDirectContext(m, r).grid(r + 1)
    for nn in range(r + 1):
        assert stirling.row(nn) == [stirling2(nn, k) for k in range(k_cap + 1)]
        for mm in range(m + 1):
            assert direct.count(nn, mm) == mm ** nn, (mm, nn)
            for kk in range(mm + 1):
                assert counting.t_value(mm, nn, kk) == (
                    math.perm(mm, kk) * stirling2(nn, kk)), (mm, nn, kk)
        assert [grid[mm][nn] for mm in range(1, m + 1)] == [1.0] * m
    nn = r + 1
    for mm in range(1, m + 1):
        want = count_bruteforce(ProblemInstance(mm, nn, r))
        assert direct.count(nn, mm) == counting.count(nn, mm) == want, mm
        assert sum(math.perm(mm, k) * stirling.value(nn, k)
                   for k in range(k_cap + 1)) == want, mm
        assert abs(grid[mm][nn] - want / mm ** nn) < 1e-12, mm


@pytest.mark.parametrize("m, r", [(1, 1), (3, 2), (10, 4), (365, 10)])
def test_column_coefficients_follow_pascal(monkeypatch, m, r):
    # After filling n, _coeffs holds a_r .. a_1 of the step to n + 1 between
    # the 0 that skips the oldest window item and a_0 = -1.  The EGF switch
    # is put out of reach: N_n stays below 2**31000 here.
    monkeypatch.setattr(bbp.solvers, "EGF_SWITCH_BITS", 40_000)
    column = ColumnContext(m, r)
    for n in sorted({0, 1, r - 1, r, r + 1, 2 * r + 5, m * r + 2}):
        column.extend(n)
        want = [m * math.comb(n, j - 1) - math.comb(n, j) for j in range(r, 0, -1)]
        assert column._coeffs == [0] + want + [-1], (m, r, n)
    # P is already 0 here: one step under d = 3, then the rest with no threshold.
    column.extend(m * r + 9, below=Fraction(1, 3))
    n = column.extend(m * r + 9)
    assert column._coeffs[1:-1] == [m * math.comb(n, j - 1) - math.comb(n, j)
                                    for j in range(r, 0, -1)]
    assert column._egf is None


@pytest.mark.parametrize("m, r", [(20, 1), (3, 2), (10, 4), (365, 10), (50, 20)])
def test_egf_coefficients_follow_their_identity(monkeypatch, m, r):
    # The row of step n holds c_j(n) = ((m+1) j - n) H_j(n) for j = r..1,
    # H_j(n) = Q_n / (Q_{n-j} j!) an integer, Q_n = prod p^(n // d_p) over
    # the primes p <= r, d_p the largest divisor of 720 below p.  The rows
    # are stepped by c(n) = c(n - L) - L H, so the check runs past two
    # periods where m*r allows (L = 720 at r = 20).
    monkeypatch.setattr(bbp.solvers, "EGF_SWITCH_BITS", 4)
    divisors = [d for d in range(1, 721) if 720 % d == 0]
    periods = [(p, max(d for d in divisors if d < p)) for p in range(2, r + 1)
               if all(p % q for q in range(2, p))]
    period = math.lcm(*(d for _, d in periods))

    def h(n, j):  # Q_n / (Q_{n-j} j!), from the exponents of Q
        return Fraction(math.prod(p ** (n // d - (n - j) // d)
                                  for p, d in periods), math.factorial(j))

    column = ColumnContext(m, r)
    for n in range(1, min(m * r, 2 * period + 30)):
        column.extend(n)
        if column._egf is None:
            continue  # before the switch
        hs = [h(n, j) for j in range(r, 0, -1)]
        assert all(x.denominator == 1 for x in hs), (m, r, n)
        want = [((m + 1) * j - n) * x for j, x in zip(range(r, 0, -1), hs)]
        assert column._egf.rows[n % period][0] == [0] + want, (m, r, n)
    assert column._egf.period == period


def test_column_keeps_a_window():
    # r = 2 keeps the counts of n = 18..20 once the fill reaches 20.
    column, fresh = ColumnContext(10, 2), ColumnContext(10, 2)
    column.extend(20)
    for n in (18, 19, 20):
        assert column.count(n) == fresh.count(n)
        assert column.prob(n) == Fraction(fresh.count(n), 10 ** n)
    for n in (17, 0):
        with pytest.raises(ValueError):
            column.count(n)
        with pytest.raises(ValueError):
            column.prob(n)


# ---------------------------------------------------------------------------
# Coefficient precomputation


def test_coeff_seed_and_steps():
    # c(m, n) = C(n-1, r) (m-1)**(n-1-r) / m**(n-1), by hand: at r = 1,
    # c(3, 2) = 1/3 (the seed 1/m**r) and c(3, 3) = (2/1)(2/3)(1/3) = 4/9; at
    # r = 2, c(2, 3) = 1/4 and c(2, 4) = (3/1)(1/2)(1/4) = 3/8.
    hand = {(3, 2, 1): Fraction(1, 3), (3, 3, 1): Fraction(4, 9),
            (2, 3, 2): Fraction(1, 4), (2, 4, 2): Fraction(3, 8)}
    for (m, n, r), c in hand.items():
        assert coeff_direct(m, n, r) == c
    # The float direct step lands on the same values: seed, then one step.
    for m, r in ((3, 1), (2, 2)):
        ctx = FloatDirectContext(m, r)
        for n in (r + 1, r + 2):
            ctx.extend(n)
            assert ctx._coeffs[m] == pytest.approx(float(hand[m, n, r]),
                                                   rel=1e-15), (m, n, r)


def test_coeff_chain_matches_direct_evaluation():
    # The float direct step, from its seed, keeps to the closed form.
    for r in range(1, 6):
        ctx = FloatDirectContext(20, r)
        for n in range(r + 1, 61):
            ctx.extend(n)
            for mm in range(1, 21):
                exact = coeff_direct(mm, n, r)
                assert abs(ctx._coeffs[mm] - exact) <= 1e-12 * exact, (mm, n, r)


def test_float_mode_matches_exact_small():
    for m in (2, 5, 17, 40):
        for r in (1, 2, 5):
            fctx = FloatDirectContext(m, r)
            ectx = DirectContext(m, r)
            for n in range(0, 3 * m):
                approx = fctx.prob(n)
                exact = float(ectx.prob(n))
                assert abs(approx - exact) <= 1e-11, (m, n, r)


@pytest.mark.parametrize("m, r, n", [(1, 1, 3), (5, 2, 12), (17, 3, 60)])
def test_float_grid_top_row_is_prob(m, r, n):
    fctx = FloatDirectContext(m, r)
    assert FloatDirectContext(m, r).grid(n)[m] == [fctx.prob(k) for k in range(n + 1)]
    with pytest.raises(ValueError, match="dropped"):
        fctx.prob(n - r - 1)  # the window keeps the last r + 1 layers


# ---------------------------------------------------------------------------
# Shared properties


def test_all_exact_algorithms_agree_small_grid():
    gamma_grid = [(m, n, r) for m in range(1, 9) for n in range(0, 13)
                  for r in range(1, 4)]
    for m, n, r in gamma_grid:
        inst = ProblemInstance(m, n, r)
        values = {
            algo: prob_exact(inst, algo)
            for algo in (
                AlgorithmId.DAY_AT_A_TIME,
                AlgorithmId.COUNTING,
                AlgorithmId.STIRLING,
                AlgorithmId.DIRECT,
                AlgorithmId.COLUMN,
            )
        }
        assert len(set(values.values())) == 1, (m, n, r, values)


@pytest.mark.parametrize("algorithm", list(AlgorithmId))
def test_count_exact_closed_forms(algorithm, monkeypatch):
    # Each closed form is read through count_exact, prob_exact and the CLI's
    # count and prob --format frac, on the pigeonhole edge n = m*r too.
    def check(m, n, r, count):
        inst, p = ProblemInstance(m, n, r), Fraction(count, m ** n)
        assert count_exact(inst, algorithm) == count, inst
        assert prob_exact(inst, algorithm) == p, inst
        flags = ["-m", str(m), "-n", str(n), "-r", str(r), "--algo", algorithm.value]
        for argv, line in ((["count"] + flags, str(count)),
                           (["prob", "--format", "frac"] + flags,
                            "%d/%d" % (p.numerator, p.denominator))):
            out, err = io.StringIO(), io.StringIO()
            assert (run(argv, out=out, err=err), out.getvalue(), err.getvalue()) == (
                0, line + "\n", ""), argv

    # r = 1 leaves a falling factorial, n = m*r a multinomial coefficient.
    for m in (1, 2, 5, 7):
        for n in range(m + 3):
            check(m, n, 1, math.perm(m, n))
        for r in (1, 2, 3):
            check(m, m * r, r, math.factorial(m * r) // math.factorial(r) ** m)
    # n <= r gives all m**n (n = 0 the one empty assignment) and n > m*r
    # none; every route but the oracle answers them without a context.
    if algorithm is not AlgorithmId.BRUTE_FORCE:
        def no_context(m, r, algorithm):
            raise AssertionError("a context was made for m=%d r=%d" % (m, r))

        monkeypatch.setattr(bbp.solvers, "make_context", no_context)
        check(5, 3, 2 * 10**7, 125)
    for m in (1, 2, 5):
        for r in (1, 2, 3):
            for n in (m * r + 1, m * r + 7):
                check(m, n, r, 0)
            for n in range(r + 1):
                check(m, n, r, m ** n)


DIRECT_AND_COLUMN = (AlgorithmId.DIRECT, AlgorithmId.COLUMN)


@pytest.mark.parametrize("m, n, r, algorithms", [
    # m = 2: the direct cone is at most 3 wide, and at n > 2r + 1 m binds it.
    (2, 400, 210, DIRECT_AND_COLUMN),
    (2, 150, 60, DIRECT_AND_COLUMN),
    (2, 5000, 2600, (AlgorithmId.DIRECT,)),
    (2, 3500, 1000, (AlgorithmId.DIRECT,)),
    # n <= 2r + 1: at most one day passes r, and n/(r+1) binds the cone.
    (7, 11, 5, DIRECT_AND_COLUMN),
    (365, 23, 11, DIRECT_AND_COLUMN),
    (10 ** 6, 201, 100, DIRECT_AND_COLUMN),
    # Stirling rows min(m, n) + 1 wide: m + 1 wide ones took 795 MiB here.
    (10 ** 6, 201, 100, (AlgorithmId.STIRLING,)),
    (10 ** 5, 2001, 1000, (AlgorithmId.DIRECT,)),  # column takes about 20 s
], ids=lambda v: "+".join(a.value for a in v) if isinstance(v, tuple) else None)
def test_closed_forms_at_the_cone_edges(m, n, r, algorithms):
    # Each form is read through count_exact, prob_exact and the CLI's count
    # and prob on every route that is cheap there.
    count = two_day_count(n, r) if m == 2 else one_day_over_count(m, n, r)
    inst, p = ProblemInstance(m, n, r), Fraction(count, m ** n)
    start = time.process_time()
    for algorithm in algorithms:
        assert count_exact(inst, algorithm) == count, algorithm
        assert prob_exact(inst, algorithm) == p, algorithm
        flags = ["-m", str(m), "-n", str(n), "-r", str(r), "--algo", algorithm.value]
        with big_int_strings():  # the count at (10**5, 2001) has 10,005 digits
            lines = {"count": "%d\n" % count,
                     "prob": "%d/%d\n" % (p.numerator, p.denominator)}
        for command, line in lines.items():
            out, err = io.StringIO(), io.StringIO()
            assert (run([command] + flags, out=out, err=err), out.getvalue(),
                    err.getvalue()) == (0, line, ""), (command, algorithm)
    assert time.process_time() - start < 1


def test_probability_range_and_degenerate_cases():
    for m in range(1, 7):
        for n in range(0, 10):
            for r in range(1, 4):
                p = DirectContext(m, r).prob(n)
                assert 0 <= p <= 1
                if r >= n:
                    assert p == 1
                if n > m * r:
                    assert p == 0


@settings(deadline=None)
@given(m=st.integers(1, 60), n=st.integers(0, 300), r=st.integers(1, 8))
def test_prob_nondecreasing_in_m_and_r(m, n, r):
    # More days, or a higher cap, never lowers P(m, n, r).
    for algorithm in (AlgorithmId.COLUMN, AlgorithmId.DIRECT):
        p = prob_exact(ProblemInstance(m, n, r), algorithm)
        assert p <= prob_exact(ProblemInstance(m + 1, n, r), algorithm), algorithm
        assert p <= prob_exact(ProblemInstance(m, n, r + 1), algorithm), algorithm


def test_monotonicity_small():
    for r in (1, 2, 3):
        ctx = DirectContext(8, r, keep_all=True)
        ctx.extend(12)
        for m in range(1, 9):
            for n in range(1, 13):
                assert ctx.prob(n, m) <= ctx.prob(n - 1, m)  # nonincreasing in n
        for m in range(1, 8):
            for n in range(0, 13):
                assert ctx.prob(n, m) <= ctx.prob(n, m + 1)  # nondecreasing in m
    for m in range(1, 9):
        for n in range(0, 13):
            for r in (1, 2):
                a = DirectContext(m, r).prob(n)
                b = DirectContext(m, r + 1).prob(n)
                assert a <= b  # nondecreasing in r


# ---------------------------------------------------------------------------
# Module layout


def _names_imported_from_solvers(path):
    tree = ast.parse(path.read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "bbp.solvers"
            for alias in node.names}


def test_every_name_resolves_to_its_defining_module():
    # The acceptance suite and the perfbench tracer import names from
    # bbp.solvers that now live in bbp.oracles; bbp resolves its exports
    # lazily.  Each must be the object its defining module holds.
    root = pathlib.Path(__file__).resolve().parent.parent
    names = (_names_imported_from_solvers(root / "tests" / "test_acceptance.py")
             | _names_imported_from_solvers(root / "perfbench" / "tracing.py"))
    assert {"DayContext", "StirlingContext", "FloatDirectContext"} <= names
    for owner, owned in [(bbp.solvers, sorted(names)), (bbp, bbp.__all__)]:
        for name in owned:
            obj = getattr(owner, name)
            home = importlib.import_module(obj.__module__)
            assert getattr(home, obj.__name__) is obj, (owner.__name__, name)
    for name in ("DayContext", "CountingContext", "StirlingContext", "prob_bruteforce"):
        assert getattr(bbp.solvers, name).__module__ == "bbp.oracles", name
    assert bbp.cross_check.__module__ == bbp.XCheckReport.__module__ == "bbp.xcheck"
    for owner in (bbp.solvers, bbp):
        with pytest.raises(AttributeError):
            owner.no_such_name
    for algorithm in AlgorithmId:
        if algorithm is AlgorithmId.BRUTE_FORCE:
            with pytest.raises(ValueError, match="no incremental context"):
                make_context(3, 2, algorithm)
            continue
        ctx = make_context(3, 2, algorithm)
        assert ctx.count(5) == count_bruteforce(ProblemInstance(3, 5, 2)), algorithm
