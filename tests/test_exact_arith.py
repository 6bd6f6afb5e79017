import random
from fractions import Fraction
from itertools import combinations

import pytest

from bbp.exact_arith import (
    binomial,
    decimal_string,
    parse_rational,
    ratio,
)


def test_binomial_small_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 3) == 0
    assert binomial(7, 0) == 1
    assert binomial(7, 7) == 1
    assert binomial(3, -1) == 0


def test_binomial_matches_subset_enumeration():
    # Independent oracle: count 3-subsets of a 4-set by hand.
    assert binomial(4, 3) == sum(1 for _ in combinations(range(4), 3))
    for n in range(8):
        for k in range(n + 1):
            assert binomial(n, k) == sum(1 for _ in combinations(range(n), k))


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_pascal_identity_exhaustive():
    for n in range(1, 61):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_row_sums():
    for n in range(41):
        assert sum(binomial(n, k) for k in range(n + 1)) == 2 ** n


def test_ratio_reduces():
    assert ratio(6, 9) == Fraction(2, 3)
    assert ratio(0, 7) == Fraction(0, 1)
    assert ratio(0, 7).denominator == 1
    assert ratio(48, 64) == Fraction(3, 4)


def test_ratio_rejects_nonpositive_denominator():
    with pytest.raises(ValueError):
        ratio(1, 0)
    with pytest.raises(ValueError):
        ratio(1, -2)


def test_ratio_comparison_matches_cross_products():
    rng = random.Random(99)
    for _ in range(500):
        a, c = rng.randrange(-50, 51), rng.randrange(-50, 51)
        b, d = rng.randrange(1, 51), rng.randrange(1, 51)
        cross = a * d - c * b
        if cross > 0:
            assert ratio(a, b) > ratio(c, d)
        elif cross < 0:
            assert ratio(a, b) < ratio(c, d)
        else:
            assert ratio(a, b) == ratio(c, d)


def test_parse_rational():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("1") == Fraction(1)
    assert parse_rational(" 9/10 ") == Fraction(9, 10)
    for bad in ["0.5", "1e-3", "a/b", "1/0", ""]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_decimal_string_rounding():
    assert decimal_string(Fraction(1, 2), 3) == "0.500"
    assert decimal_string(Fraction(2, 3), 4) == "0.6667"
    assert decimal_string(Fraction(1, 3), 4) == "0.3333"
    # Ties round to even.
    assert decimal_string(Fraction(1, 8), 2) == "0.12"
    assert decimal_string(Fraction(3, 8), 2) == "0.38"
    assert decimal_string(Fraction(1), 2) == "1.00"
    assert decimal_string(Fraction(-1, 8), 2) == "-0.12"
    assert decimal_string(Fraction(5, 2), 0) == "2"
