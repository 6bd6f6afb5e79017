import re
from fractions import Fraction

import pytest

from bbp.exact_arith import decimal_string, parse_rational


def test_parse_rational():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("1") == Fraction(1)
    assert parse_rational(" 9/10 ") == Fraction(9, 10)
    assert parse_rational("6/9") == Fraction(2, 3)
    for bad in ["0.5", "1e-3"]:
        with pytest.raises(ValueError, match="must be exact"):
            parse_rational(bad)
    for bad in ["a/b", "1/0", "1/-2", ""]:
        with pytest.raises(ValueError, match=re.escape("malformed rational %r" % bad)):
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
