"""Independent oracles used to freeze expected test values.

Most enumerate raw objects (assignments, set partitions); miller_counts
runs a textbook recurrence, and coeff_direct, two_day_count and
one_day_over_count evaluate closed forms.  None shares code with the
solvers they check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb


def assignments_prob(m: int, n: int, r: int) -> Fraction:
    """P(m, n, r) by enumerating all m**n assignments directly."""
    valid = 0
    for assignment in product(range(m), repeat=n):
        counts = [0] * m
        ok = True
        for day in assignment:
            counts[day] += 1
            if counts[day] > r:
                ok = False
                break
        if ok:
            valid += 1
    return Fraction(valid, m ** n)


def assignments_count_exact_k(m: int, n: int, k: int, r: int) -> int:
    """Assignments of n people to exactly k distinct days, none above r."""
    total = 0
    for assignment in product(range(m), repeat=n):
        counts = [0] * m
        for day in assignment:
            counts[day] += 1
        used = sum(1 for c in counts if c)
        if used == k and all(c <= r for c in counts):
            total += 1
    return total


def set_partitions(items: list):
    """All partitions of `items` into nonempty unlabeled blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [partial[i] + [first]] + partial[i + 1 :]
        yield [[first]] + partial


def partition_count(n: int, k: int, r: int | None = None) -> int:
    """Partitions of an n-set into k blocks, optionally all of size <= r."""
    total = 0
    for blocks in set_partitions(list(range(n))):
        if len(blocks) != k:
            continue
        if r is not None and any(len(b) > r for b in blocks):
            continue
        total += 1
    return total


def miller_counts(m: int, r: int, n_top: int) -> list[int]:
    """N(m, n, r) for n = 0..n_top by J. C. P. Miller's recurrence as printed
    (Knuth, TAOCP Vol. 2, 4.7), one exact division by n per step:
    n N_n = sum_{j=1..min(r,n)} ((m+1) j - n) C(n, j) N_{n-j}, N_0 = 1."""
    counts = [1]
    for n in range(1, n_top + 1):
        total = sum(((m + 1) * j - n) * comb(n, j) * counts[n - j]
                    for j in range(1, min(r, n) + 1))
        assert total % n == 0
        counts.append(total // n)
    return counts


def coeff_direct(m: int, n: int, r: int) -> Fraction:
    """The direct recurrence's correction coefficient in closed form,
    C(n-1, r) * (m-1)**(n-1-r) / m**(n-1), and 0 for n <= r."""
    if n - 1 - r < 0:
        return Fraction(0)
    return Fraction(comb(n - 1, r) * (m - 1) ** (n - 1 - r), m ** (n - 1))


def two_day_count(n: int, r: int) -> int:
    """N(2, n, r) = sum_{j=max(0,n-r)}^{min(n,r)} C(n, j): the first day
    takes j birthdays and the second n - j, both at most r."""
    total, c = 0, comb(n, max(0, n - r))
    for j in range(max(0, n - r), min(n, r) + 1):
        total += c
        c = c * (n - j) // (j + 1)  # C(n, j+1)
    return total


def one_day_over_count(m: int, n: int, r: int) -> int:
    """N(m, n, r) for n <= 2r + 1, where at most one day can pass r:
    m**n - m sum_{j=r+1}^{n} C(n, j) (m-1)**(n-j)."""
    assert n <= 2 * r + 1
    return m ** n - m * sum(comb(n, j) * (m - 1) ** (n - j)
                            for j in range(r + 1, n + 1))
