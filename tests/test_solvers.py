import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    coeff_direct,
    coeff_next,
    count_bruteforce,
    count_valid,
    count_valid_stirling,
    prob_bruteforce,
    prob_exact,
)
from bbp.stirling import NegativeCountError, restricted_stirling2
from oracles import assignments_count_exact_k, assignments_prob


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(0, 1, 1)
    with pytest.raises(ValueError):
        ProblemInstance(1, -1, 1)
    with pytest.raises(ValueError):
        ProblemInstance(1, 1, 0)


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


def test_bruteforce_guard():
    with pytest.raises(InstanceTooLargeError):
        prob_bruteforce(ProblemInstance(365, 23, 1))
    with pytest.raises(InstanceTooLargeError):
        prob_bruteforce(ProblemInstance(10, 10, 5), max_compositions=10)


def test_bounded_composition_count():
    # All compositions of 3 into 2 parts of size <= 2: (1,2), (2,1).
    assert bounded_composition_count(2, 3, 2) == 2
    assert bounded_composition_count(3, 2, 1) == 3
    assert bounded_composition_count(4, 0, 1) == 1
    # Unbounded cap: C(n + m - 1, m - 1).
    assert bounded_composition_count(5, 7, 7) == math.comb(11, 4)


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


def test_count_valid_examples():
    assert count_valid(ProblemInstance(3, 2, 1)) == 6
    assert count_valid(ProblemInstance(2, 3, 2)) == 6
    assert count_valid(ProblemInstance(5, 0, 2)) == 1


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


def test_prob_stirling_examples():
    assert StirlingContext(3, 1).prob(2) == Fraction(2, 3)
    assert StirlingContext(2, 2).prob(4) == Fraction(3, 8)
    assert StirlingContext(1, 1).prob(1) == 1


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
    column = ColumnContext(10, 2)
    assert column.count(5, 10) == column.count(5)
    with pytest.raises(ValueError):
        column.count(5, 9)
    with pytest.raises(ValueError):
        column.prob(5, 11)
    with pytest.raises(ValueError):
        ColumnContext(0, 2)


def test_column_fill_guards_exactness():
    # A count off by one drives the fill negative by the time it passes
    # m*r, where every true count is 0.
    for delta in (1, -1):
        column = ColumnContext(3, 2)
        column.extend(2)
        column._counts[2] += delta
        with pytest.raises(NegativeCountError):
            column.extend(9)


# ---------------------------------------------------------------------------
# Coefficient precomputation


def test_coeff_seed_and_steps():
    # Seed: m=3, r=1, n=2 -> C(1,1) * 2**0 / 3**1 = 1/3.
    assert coeff_direct(3, 2, 1) == Fraction(1, 3)
    # Step: m=3, r=1, n=3 -> (2/1)*(2/3)*(1/3) = 4/9 = C(2,1)*2/3**2.
    assert coeff_next(Fraction(1, 3), 3, 3, 1) == Fraction(4, 9) == coeff_direct(3, 3, 1)
    # Step: m=2, r=2, n=4 -> (3/1)*(1/2)*(1/4) = 3/8 = C(3,2)*1/2**3.
    assert coeff_direct(2, 3, 2) == Fraction(1, 4)
    assert coeff_next(Fraction(1, 4), 2, 4, 2) == Fraction(3, 8) == coeff_direct(2, 4, 2)


def test_coeff_next_rejects_early_indices():
    with pytest.raises(ValueError):
        coeff_next(Fraction(1, 4), 2, 3, 2)  # n == r + 1 is the seed's job


def test_coeff_chain_matches_direct_evaluation():
    for m in range(1, 21):
        for r in range(1, 6):
            c = Fraction(1, m ** r)  # the seed at n = r + 1
            assert c == coeff_direct(m, r + 1, r), (m, r)
            for n in range(r + 2, 61):
                c = coeff_next(c, m, n, r)
                assert c == coeff_direct(m, n, r), (m, n, r)


def test_float_mode_matches_exact_small():
    for m in (2, 5, 17, 40):
        for r in (1, 2, 5):
            fctx = FloatDirectContext(m, r)
            ectx = DirectContext(m, r)
            for n in range(0, 3 * m):
                approx = fctx.prob(n)
                exact = float(ectx.prob(n))
                assert abs(approx - exact) <= 1e-11, (m, n, r)


def test_float_mode_extended_precision():
    approx = FloatDirectContext(365, 1, precision=200).prob(23)
    exact = DirectContext(365, 1).prob(23)
    assert abs(approx - float(exact)) < 1e-12
    assert 0.0 <= approx <= 1.0


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
