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

    Zero for k < 0 or k > n, one for k == n and C(n, 2) for k == n - 1,
    without the sum.
    """
    if n < 0:
        raise ValueError("stirling2 requires n >= 0")
    if k < 0 or k > n:
        return 0
    if k == n:
        return 1  # all singletons, and {0, 0}
    if k == n - 1:
        return math.comb(n, 2)  # one pair, the rest singletons
    total, remainder = divmod(
        sum((-1) ** (k - j) * math.comb(k, j) * j ** n for j in range(k + 1)),
        math.factorial(k))
    if remainder or total < 0:
        raise NegativeCountError("stirling2 sum inexact at n=%d k=%d" % (n, k))
    return total


class RestrictedStirling:
    """Incrementally grown table of {n, k} restricted to block size <= r.

    Rows are indexed by n and hold k = 0..k_cap, zero past k = n.  Only the
    trailing r+1 rows are retained (the recurrence looks back r+1 rows) unless
    keep_all=True retains the whole table, e.g. for sweep grids.
    """

    def __init__(self, r: int, k_cap: int, keep_all: bool = False):
        if r < 1:
            raise ValueError("restriction r must be >= 1")
        self.r = r
        self.k_cap = k_cap
        self._rows = Layers([1] + [0] * k_cap, r, keep_all)  # {0, 0} = 1

    def extend(self, n: int) -> None:
        self._rows.fill(n, self._step)

    def _step(self, nn: int, prev: list[int], back: list[int], c: int) -> list[int]:
        row = [0] * (self.k_cap + 1)
        for k in range(-(-nn // self.r), min(nn, self.k_cap) + 1):  # nn <= k*r
            val = prev[k - 1] + k * prev[k] - c * back[k - 1]
            if val < 0:
                raise NegativeCountError(
                    "restricted Stirling fill went negative at n=%d k=%d r=%d"
                    % (nn, k, self.r)
                )
            row[k] = val
        return row

    def row(self, n: int) -> list[int]:
        """Values {n, k} for k = 0..k_cap."""
        self.extend(n)
        return self._rows[n]

    def value(self, n: int, k: int) -> int:
        row = self.row(n)
        return row[k] if 0 <= k < len(row) else 0


def restricted_stirling2(n: int, k: int, r: int) -> int:
    """{n, k} with every block of size at most r.

    Zero when k < 0, k > n or n > k*r (so for k = 0 < n), and one when
    k == n, without a fill.  When r >= n - k + 1 the cap cannot bind, since
    no block of a k-block partition of n holds more than n - k + 1 elements,
    and the classic {n, k} answers: C(n, 2) at k == n - 1, without a sum.
    """
    if n < 0:
        raise ValueError("restricted_stirling2 requires n >= 0")
    if k < 0 or k > n or n > k * r:
        return 0
    if k == n:
        return 1  # all singletons, and {0, 0}
    if r >= n - k + 1:
        return stirling2(n, k)
    return RestrictedStirling(r, k_cap=k).value(n, k)
