"""The paper's cross-check oracles: brute force and three recurrences.

* brute force     -- enumerate bounded compositions, sum multinomials
* day-at-a-time   -- total-probability recurrence, one day peeled per step
* counting        -- T(m, n, k, r) occupancy counts summed over k
* stirling        -- C(m, k) * k! * {n, k}_{<=r} summed over k

Each gives the same exact counts as the production routes of `bbp.solvers`
by a recurrence that shares no step with them.  This module is loaded on
first use only: by `bbp.solvers.make_context`, `prob_exact` and
`count_exact` when one of these routes (or `brute`) is asked for, by
`bbp.xcheck`, and by the names `bbp.solvers` resolves from here for
callers that still import them from there.  `import bbp.cli` does not load
it, but `count`'s default route, Stirling, does.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .exact_arith import Layers
from .solvers import InstanceTooLargeError, ProblemInstance, _Context
from .stirling import NegativeCountError, RestrictedStirling
# Bounded compositions the brute-force oracle may enumerate: 1 s at most, small n.
DEFAULT_ORACLE_LIMIT = 200_000
# Its bounds on n (one math.comb(n, n/2) takes 0.5 s at 200,000) and on
# compositions * m * n**2 (up to m steps per composition, each on integers
# about n bits wide), which keep admitted instances near 1 s.
ORACLE_MAX_N = 200_000
ORACLE_WORK_LIMIT = 10**12


# ---------------------------------------------------------------------------
# Brute-force oracle


def bounded_composition_count(m: int, n: int, r: int) -> int:
    """Number of tuples (k_1..k_m) with sum n and every k_i <= r, by
    inclusion-exclusion over the days given more than r (Flajolet &
    Sedgewick, Analytic Combinatorics, ch. I) at the symmetric min(n, m r - n):
    sum_k (-1)^k C(m, k) C(n - k(r+1) + m - 1, m - 1), at most
    min(m, n/(r+1)) + 1 terms and none when n > m r."""
    n = min(n, m * r - n)
    return sum((-1) ** k * math.comb(m, k)
               * math.comb(n - k * (r + 1) + m - 1, m - 1)
               for k in range(n // (r + 1) + 1))


def count_bruteforce(inst: ProblemInstance) -> int:
    """Valid configurations counted by explicit composition enumeration,
    refused past DEFAULT_ORACLE_LIMIT bounded compositions, past n =
    ORACLE_MAX_N, or past ORACLE_WORK_LIMIT for compositions * m * n**2.

    The coefficients of (1 + x + ... + x^r)^m are symmetric and unimodal,
    so j <= n <= m r - j leaves at least C(m, j) compositions: that floor,
    at j <= 4, refuses a large m before the closed form's O(m^3) sum runs.

    A branch puts k >= 1 people on the next occupied day b only if the days
    after b hold the rest: every branch ends in a composition, and empty days
    are never walked.  A stack of lazy iterators, one per occupied day, holds
    the walk, since its depth and its breadth can both reach n.
    """
    m, n, r = inst.m, inst.n, inst.r
    compositions = math.comb(m, max(0, min(n, m * r - n, m, 4)))  # a floor
    if compositions <= DEFAULT_ORACLE_LIMIT:
        compositions = bounded_composition_count(m, n, r)
    if compositions > DEFAULT_ORACLE_LIMIT:
        raise InstanceTooLargeError(
            "brute force refused: more than %d bounded compositions for "
            "m=%d n=%d r=%d" % (DEFAULT_ORACLE_LIMIT, m, n, r)
        )
    if n > ORACLE_MAX_N or compositions * m * n * n > ORACLE_WORK_LIMIT:
        raise InstanceTooLargeError(
            "brute force refused: m=%d n=%d r=%d (%d compositions) is past "
            "n <= %d or compositions*m*n^2 <= %d"
            % (m, n, r, compositions, ORACLE_MAX_N, ORACLE_WORK_LIMIT)
        )

    def branches(first: int, left: int, multinomial: int):
        low = max(1, left - (m - 1 - first) * r)  # what later days cannot hold
        ways = math.comb(left, low)
        for k in range(low, min(r, left) + 1):
            product = multinomial * ways
            for b in range(first, m - (left - k + r - 1) // r):  # b+1.. hold left-k
                yield b + 1, left - k, product
            ways = ways * (left - k) // (k + 1)

    total, stack = 0, [iter([(0, n, 1)])]  # (first day, people left, multinomial)
    while stack:
        for first, left, multinomial in stack[-1]:
            if left:
                stack.append(branches(first, left, multinomial))
                break
            total += multinomial
        else:
            stack.pop()
    return total


def prob_bruteforce(inst: ProblemInstance) -> Fraction:
    return Fraction(count_bruteforce(inst), inst.m ** inst.n)


# ---------------------------------------------------------------------------
# Day-at-a-time recurrence


class DayContext(_Context):
    """Exact counts N(mm, nn) filled one day at a time.

    The total-probability recurrence, multiplied through by mm**nn, peels
    off one day and sums over how many of the nn birthdays land on it:

        N(mm, nn) = sum_{k <= min(nn, r)} C(nn, k) N(mm-1, nn-k),

    with N(0, 0) = 1 and N(0, nn) = 0 for nn > 0: m min(nn, r) big-int
    multiply-adds per nn.  All rows up to m are kept, so sub-instance counts
    can be read out of the same context.
    """

    def __init__(self, m: int, r: int):
        super().__init__(m, r)
        self._rows: list[list[int]] = [[1] for _ in range(m + 1)]  # N(mm, nn)

    def extend(self, n: int) -> None:
        rows = self._rows
        for nn in range(len(rows[0]), n + 1):
            low = max(0, nn - self.r)
            # C(nn, nn - j) multiplies N(mm-1, j) for j = low..nn.
            coeffs = [math.comb(nn, k) for k in range(nn - low, -1, -1)]
            rows[0].append(0)
            for mm in range(1, self.m + 1):
                rows[mm].append(sum(map(mul, coeffs, rows[mm - 1][low:])))

    def count(self, n: int, mm: int | None = None) -> int:
        mm = self._mm(mm)
        self.extend(n)
        return self._rows[mm][n]


# ---------------------------------------------------------------------------
# Counting recurrence T(m, n, k, r)


class CountingContext(_Context):
    """Occupancy counts T(mm, nn, kk, r) filled layer by layer over nn.

    A layer holds the triangle kk <= mm for one value of nn; the
    recurrence looks back 1 and r+1 layers, so only the trailing r+1
    layers are retained unless keep_all is requested, and a read of a
    dropped nn raises ValueError, at mm = m too.  The fill starts at kk =
    ceil(nn/r), the fewest days that hold nn birthdays; the kk below stay
    0, so N(mm, nn) is the sum of row mm.
    """

    def __init__(self, m: int, r: int, keep_all: bool = False):
        super().__init__(m, r)
        base = [[1] + [0] * mm for mm in range(m + 1)]  # T(mm, 0, 0, r) = 1
        self._layers = Layers(base, r, keep_all)

    def extend(self, n: int) -> None:
        self._layers.fill(n, self._step)

    def _step(self, nn: int, prev, back, c: int) -> list[list[int]]:
        m, r = self.m, self.r
        layer = [[0] * (mm + 1) for mm in range(m + 1)]
        low = max(1, -(-nn // r))  # kk days hold nn birthdays only from here
        for mm in range(low, m + 1):
            row, prow, brow, mc = layer[mm], prev[mm], back[mm - 1], mm * c
            for kk in range(low, min(mm, nn) + 1):
                val = (mm - kk + 1) * prow[kk - 1] + kk * prow[kk] - mc * brow[kk - 1]
                if val < 0:
                    raise NegativeCountError(
                        "counting fill went negative at m=%d n=%d k=%d r=%d"
                        % (mm, nn, kk, r)
                    )
                row[kk] = val
        return layer

    def t_value(self, mm: int, nn: int, kk: int) -> int:
        """T(mm, nn, kk, r); layers behind the window raise ValueError."""
        if kk < 0 or kk > self._mm(mm):
            return 0  # more occupied days than days
        self.extend(nn)
        return self._layers[nn][mm][kk]

    def count(self, n: int, mm: int | None = None) -> int:
        """N(mm, n) = sum over kk of T(mm, n, kk, r)."""
        mm = self._mm(mm)
        self.extend(n)
        return sum(self._layers[n][mm])


# ---------------------------------------------------------------------------
# Restricted-Stirling route


class StirlingContext(_Context):
    """N(mm, n) summed from row n of one restricted-Stirling table.

    An answer fills the rows up to n and sums one, O(min(n, m)) terms a row.
    Window mode keeps the last r+1 rows: a read of a dropped n > 0 raises
    ValueError, at mm = m too; n = 0 gives 1 without a row.  Rows stop at
    k = min(m, n), so mm > m is refused, and an extend to an n that needs
    wider rows refills them from row 0.
    """

    def __init__(self, m: int, r: int, keep_all: bool = False):
        super().__init__(m, r)
        self._keep_all = keep_all
        self._table = RestrictedStirling(r, 0, keep_all)

    def _sum_row(self, row: list[int], n: int, mm: int) -> int:
        lo = -(-n // self.r)
        total = 0
        falling = math.perm(mm, lo)  # C(mm, k) * k! == mm falling-factorial k
        for k in range(lo, min(mm, n) + 1):  # {n, k} > 0 for each such k <= m
            total += falling * row[k]
            falling *= mm - k
        return total

    def extend(self, n: int) -> None:
        # Rows m + 1 wide took 795 MiB at m = 10^6, n = 201, r = 100.
        if self._table.k_cap < min(self.m, n):
            self._table = RestrictedStirling(self.r, min(self.m, n), self._keep_all)
        self._table.extend(n)

    def count(self, n: int, mm: int | None = None) -> int:
        mm = self._mm(mm)
        if n == 0:
            return 1  # no row read: a window that dropped row 0 still answers
        self.extend(n)
        return self._sum_row(self._table.row(n), n, mm)
