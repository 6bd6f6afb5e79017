"""The layer store the fills share, and exact input and output helpers.

Counts are plain ints, probabilities `fractions.Fraction`s and binomials
`math.comb`.  `Layers` is the one rolling-window store the layered fills
keep their layers in; `parse_rational`, `decimal_string` and
`big_int_strings` read and print exact values for the command line.
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
    dropped layer raises ValueError.  `items` holds the kept layers, oldest
    first.  `fill` is the one loop that grows a layered recurrence.
    """

    def __init__(self, first, depth: int, keep_all: bool = False):
        self.n = 0  # index of the newest layer
        self.depth = depth
        self.items = deque([first], maxlen=None if keep_all else depth + 1)

    def fill(self, n: int, step) -> None:
        """Append layers up to n.  step(nn, prev, back, c) returns layer nn
        from prev, layer nn-1, and back, layer nn-1-depth, with
        c = C(nn-1, depth); with no layer nn-1-depth, c == 0 and back is prev."""
        items, r = self.items, self.depth
        c = math.comb(self.n, r)  # carried from layer to layer
        while self.n < n:
            nn = self.n + 1
            items.append(step(nn, items[-1], items[-1 - r] if c else items[-1], c))
            self.n = nn
            c = c * nn // (nn - r) if nn > r else math.comb(nn, r)

    def __getitem__(self, n: int):
        k = self.n - n
        if n < 0 or k < 0:
            raise IndexError("layer %d is not filled (newest is %d)" % (n, self.n))
        if k >= len(self.items):
            raise ValueError("layer %d was dropped (window mode keeps the last %d)"
                             % (n, len(self.items)))
        return self.items[-1 - k]


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
            den = int(den_s)
            if den <= 0:
                raise ValueError("the denominator must be positive")
            return Fraction(int(num_s), den)
        return Fraction(int(s))
    except ValueError as exc:
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
