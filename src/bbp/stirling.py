"""Stirling numbers of the second kind, classic and size-restricted.

The restricted variant counts partitions of an n-set into k unlabeled
nonempty blocks, each block holding at most r elements.  Both are filled
bottom-up; recursion depth must never bind since n reaches the thousands.
"""

from __future__ import annotations

from .exact_arith import Layers, binomial


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
    if n == 0:
        return 1  # k == 0 here
    if k == 0:
        return 0
    # Two-row iteration over the three-case recurrence.
    row = [1] + [0] * k  # n' = 0
    for np in range(1, n + 1):
        new = [0] * (k + 1)
        for kp in range(1, min(np, k) + 1):
            if kp == 1:
                new[kp] = 1
            else:
                new[kp] = row[kp - 1] + kp * row[kp]
        row = new
    return row[k]


class RestrictedStirling:
    """Incrementally grown table of {n, k} restricted to block size <= r.

    Rows are indexed by n; each row holds k = 0..k_cap.  By default only the
    trailing r+1 rows are retained (the recurrence looks back r+1 rows);
    pass keep_all=True to retain the whole table, e.g. for sweep grids.
    """

    def __init__(self, r: int, k_cap: int | None = None, keep_all: bool = False):
        if r < 1:
            raise ValueError("restriction r must be >= 1")
        self.r = r
        self.k_cap = k_cap
        first = self._row_list(0)
        first[0] = 1
        self._rows = Layers(first, r, keep_all)

    def _row_list(self, n: int) -> list[int]:
        width = n if self.k_cap is None else min(n, self.k_cap)
        return [0] * (width + 1)

    def extend(self, n: int) -> None:
        r, rows = self.r, self._rows
        while rows.n < n:
            nn = rows.n + 1
            row = self._row_list(nn)
            prev, back = rows.back(0), rows.back(r)
            c = binomial(nn - 1, r)
            # Entries past the end of a shorter row are structurally zero.
            len_prev, len_back = len(prev), len(back) if c else 0
            for k in range(1, len(row)):
                if nn > k * r:
                    continue
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
            rows.append(row)

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
