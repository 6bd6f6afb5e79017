"""Stirling numbers of the second kind, classic and size-restricted.

{n, k} is (1/k!) sum_{j<=k} (-1)^(k-j) C(k, j) j^n (Graham, Knuth & Patashnik,
Concrete Mathematics, 6.1).  The restricted {n, k}_{<=r} caps every block at
r elements and is filled bottom-up, without recursion: n reaches thousands.
"""

from __future__ import annotations

import math

from .exact_arith import Layers


class NegativeCountError(RuntimeError):
    """An intermediate count went negative or inexact; the table fill is broken."""


def stirling2(n: int, k: int) -> int:
    """Classic Stirling number of the second kind {n, k}.

    Zero for k < 0 or k > n, with stirling2(0, 0) = 1.
    """
    if n < 0:
        raise ValueError("stirling2 requires n >= 0")
    if k < 0 or k > n:
        return 0
    total, remainder = divmod(
        sum((-1) ** (k - j) * math.comb(k, j) * j ** n for j in range(k + 1)),
        math.factorial(k))
    if remainder or total < 0:
        raise NegativeCountError("stirling2 sum inexact at n=%d k=%d" % (n, k))
    return total


class RestrictedStirling:
    """Incrementally grown table of {n, k} restricted to block size <= r.

    Rows are indexed by n; each row holds k = 0..min(n, k_cap).  By default
    only the trailing r+1 rows are retained (the recurrence looks back r+1
    rows); pass keep_all=True to retain the whole table, e.g. for sweep grids.
    """

    def __init__(self, r: int, k_cap: int, keep_all: bool = False):
        if r < 1:
            raise ValueError("restriction r must be >= 1")
        self.r = r
        self.k_cap = k_cap
        self._rows = Layers([1], r, keep_all)  # {0, 0} = 1

    def extend(self, n: int) -> None:
        self._rows.fill(n, self._step)

    def _step(self, nn: int, prev: list[int], back, c: int) -> list[int]:
        r = self.r
        row = [0] * (min(nn, self.k_cap) + 1)
        # Entries past the end of a shorter row are structurally zero.
        len_prev, len_back = len(prev), len(back) if c else 0
        for k in range(max(1, -(-nn // r)), len(row)):  # nn <= k*r
            val = prev[k - 1]
            if k < len_prev:
                val += k * prev[k]
            if k <= len_back:
                val -= c * back[k - 1]
            if val < 0:
                raise NegativeCountError(
                    "restricted Stirling fill went negative at n=%d k=%d r=%d"
                    % (nn, k, r)
                )
            row[k] = val
        return row

    def row(self, n: int) -> list[int]:
        """Values {n, k} for k = 0..min(n, k_cap)."""
        self.extend(n)
        return self._rows[n]

    def value(self, n: int, k: int) -> int:
        row = self.row(n)
        if k < 0 or k >= len(row):
            return 0
        return row[k]


def restricted_stirling2(n: int, k: int, r: int) -> int:
    """{n, k} with every block of size at most r.

    Zero when (n <= 0 and k > 0) or (n > 0 and k <= 0) or n > k*r;
    one when n == 0 and k == 0.
    """
    if n < 0:
        raise ValueError("restricted_stirling2 requires n >= 0")
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    if k == 0 or n > k * r:
        return 0
    table = RestrictedStirling(r, k_cap=k)
    return table.value(n, k)
