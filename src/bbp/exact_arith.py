"""Exact integer and rational building blocks shared by every solver.

Counts are plain Python ints (arbitrary precision); probabilities are
``fractions.Fraction`` values, which are reduced eagerly on construction.
``Layers`` is the one rolling-window store the layered fills keep their
layers in.
"""

from __future__ import annotations

import contextlib
import math
import sys
from collections import deque
from fractions import Fraction


@contextlib.contextmanager
def big_int_strings():
    """Temporarily lift the int<->str digit guard.

    Exact probabilities at m = 1000, n > 3000 have ten-thousand-digit
    terms; rendering them as decimal strings trips the interpreter's
    conversion limit unless it is raised.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)  # 0 disables the guard
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class Layers:
    """The layers of a fill over n = 0, 1, 2, ..., newest last.

    A recurrence that looks back at most `depth` layers needs only the
    trailing depth + 1 of them, and only those are kept unless keep_all asks
    for every layer (sweeps that read sub-instances need that).  Reading a
    dropped layer raises ValueError.
    """

    def __init__(self, first, depth: int, keep_all: bool = False):
        self.n = 0  # index of the newest layer
        self._items = deque([first], maxlen=None if keep_all else depth + 1)

    def back(self, k: int):
        """Layer n - k, or None when n - k < 0."""
        return self._items[-1 - k] if k <= self.n else None

    def append(self, layer) -> None:
        self._items.append(layer)
        self.n += 1

    def __getitem__(self, n: int):
        k = self.n - n
        if n < 0 or k < 0:
            raise IndexError("layer %d is not filled (newest is %d)" % (n, self.n))
        if k >= len(self._items):
            raise ValueError("layer %d was dropped (window mode keeps the last %d)"
                             % (n, len(self._items)))
        return self._items[-1 - k]


def binomial(n: int, k: int) -> int:
    """C(n, k), exactly.  Returns 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0, got n=%d" % n)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def ratio(num: int, den: int) -> Fraction:
    """The reduced rational num/den.  den must be positive."""
    if den <= 0:
        raise ValueError("ratio requires a positive denominator, got %d" % den)
    return Fraction(num, den)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational like "1/2" or "1".

    Decimal floats are rejected on purpose: thresholds must be exact.
    """
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError("rational must be exact, e.g. 1/2 (got %r)" % text)
    try:
        if "/" in s:
            num_s, den_s = s.split("/")
            return ratio(int(num_s), int(den_s))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("malformed rational %r" % text) from exc


def decimal_string(value: Fraction, digits: int) -> str:
    """Correctly rounded decimal expansion with `digits` digits after the point.

    Rounding is round-half-to-even, matching IEEE conventions.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    num, den = value.numerator, value.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    scaled = num * 10 ** digits
    q, rem = divmod(scaled, den)
    twice = 2 * rem
    if twice > den or (twice == den and q % 2 == 1):
        q += 1
    if digits == 0:
        return sign + str(q)
    text = str(q).rjust(digits + 1, "0")
    return "%s%s.%s" % (sign, text[:-digits], text[-digits:])
