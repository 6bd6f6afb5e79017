"""The bounded-occupancy probability solvers.

Six independent routes to P(m, n, r), the probability that n uniformly
random birthdays over m days leave no day with more than r of them:

* brute force     -- enumerate bounded compositions, sum multinomials
* day-at-a-time   -- total-probability recurrence, one day peeled per step
* counting        -- T(m, n, k, r) occupancy counts summed over k
* stirling        -- C(m, k) * k! * {n, k}_{<=r} summed over k
* direct          -- probability recurrence with a correction term
* column          -- power-of-series recurrence on the top-m counts only

All exact routes return identical reduced rationals; the brute-force route
is the ground-truth oracle on small instances.  The column route costs
O(r) per n whatever m is, and the exact n_max search runs on it; the other
routes do O(m) work or more per n.  `prob` defaults to the direct route and
`count` to the Stirling route; day and counting serve as cross-checks.

The layered fills (counting, direct, float direct, restricted Stirling)
keep their layers in one `exact_arith.Layers` store: the trailing window
their recurrence looks back on, or every layer with keep_all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exact_arith import Layers, binomial
from .stirling import NegativeCountError, RestrictedStirling

DEFAULT_ORACLE_LIMIT = 10_000_000


class InstanceTooLargeError(Exception):
    """The brute-force oracle refused an instance beyond its guard."""


class AlgorithmId(Enum):
    DAY_AT_A_TIME = "day"
    COUNTING = "counting"
    STIRLING = "stirling"
    DIRECT = "direct"
    COLUMN = "column"
    BRUTE_FORCE = "brute"


class Mode(Enum):
    EXACT = "exact"
    FLOAT = "float"


@dataclass(frozen=True)
class ProblemInstance:
    m: int  # days in the year
    n: int  # people
    r: int  # cap on birthdays per day

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.r < 1:
            raise ValueError("r must be >= 1")


# ---------------------------------------------------------------------------
# Brute-force oracle


def bounded_composition_count(m: int, n: int, r: int) -> int:
    """Number of tuples (k_1..k_m) with sum n and every k_i <= r."""
    ways = [0] * (n + 1)
    ways[0] = 1
    for _ in range(m):
        new = [0] * (n + 1)
        for total in range(n + 1):
            w = ways[total]
            if w:
                for k in range(min(r, n - total) + 1):
                    new[total + k] += w
        ways = new
    return ways[n]


def count_bruteforce(
    inst: ProblemInstance, max_compositions: int = DEFAULT_ORACLE_LIMIT
) -> int:
    """Valid configurations counted by explicit composition enumeration."""
    m, n, r = inst.m, inst.n, inst.r
    if n > m * r:
        return 0
    if bounded_composition_count(m, n, r) > max_compositions:
        raise InstanceTooLargeError(
            "brute force refused: more than %d bounded compositions for "
            "m=%d n=%d r=%d" % (max_compositions, m, n, r)
        )

    def recurse(bins_left: int, people_left: int, multinomial: int) -> int:
        if bins_left == 0:
            return multinomial if people_left == 0 else 0
        if people_left > bins_left * r:
            return 0
        total = 0
        for k in range(min(r, people_left) + 1):
            total += recurse(
                bins_left - 1,
                people_left - k,
                multinomial * math.comb(people_left, k),
            )
        return total

    return recurse(m, n, 1)


def prob_bruteforce(
    inst: ProblemInstance, max_compositions: int = DEFAULT_ORACLE_LIMIT
) -> Fraction:
    return Fraction(count_bruteforce(inst, max_compositions), inst.m ** inst.n)


# ---------------------------------------------------------------------------
# Day-at-a-time recurrence


class DayContext:
    """Exact rational table P(mm, nn) filled one day at a time.

    Row 1 is the single-day base case; row mm sums over how many of the nn
    birthdays land on the day being peeled off.  All rows up to m are kept,
    so sub-instance probabilities can be read out of the same context.
    """

    def __init__(self, m: int, r: int):
        if m < 1 or r < 1:
            raise ValueError("DayContext requires m >= 1 and r >= 1")
        self.m, self.r = m, r
        # rows[mm] is the list of P(mm, nn) Fractions; rows[0] unused.
        self._rows: list[list[Fraction]] = [[] for _ in range(m + 1)]
        self._rows[1] = [Fraction(1)]
        # Per-row powers of (mm-1)/mm, grown alongside the rows.
        self._q_pows: list[list[Fraction]] = [[] for _ in range(m + 1)]
        for mm in range(2, m + 1):
            self._rows[mm] = [Fraction(1)]
            self._q_pows[mm] = [Fraction(1)]

    def extend(self, n: int) -> None:
        r = self.r
        row1 = self._rows[1]
        while len(row1) <= n:
            row1.append(Fraction(1 if len(row1) <= r else 0))
        for mm in range(2, self.m + 1):
            prev = self._rows[mm - 1]
            row = self._rows[mm]
            q_pows = self._q_pows[mm]
            q = Fraction(mm - 1, mm)
            inv_pows = [Fraction(1, mm) ** k for k in range(r + 1)]
            while len(q_pows) <= n:
                q_pows.append(q_pows[-1] * q)
            for nn in range(len(row), n + 1):
                total = Fraction(0)
                for k in range(min(nn, r) + 1):
                    sub = prev[nn - k]
                    if sub:
                        total += binomial(nn, k) * inv_pows[k] * q_pows[nn - k] * sub
                row.append(total)

    def prob(self, n: int, mm: int | None = None) -> Fraction:
        mm = self.m if mm is None else mm
        self.extend(n)
        return self._rows[mm][n]


# ---------------------------------------------------------------------------
# Counting recurrence T(m, n, k, r)


class CountingContext:
    """Occupancy counts T(mm, nn, kk, r) filled layer by layer over nn.

    A layer holds the full (mm, kk) plane for one value of nn; the
    recurrence looks back 1 and r+1 layers, so only the trailing r+1
    layers are retained unless keep_all is requested.  Inadmissible kk
    stay 0, so N(mm, nn) is the sum of row mm; N(m, nn) is recorded for
    every nn.
    """

    def __init__(self, m: int, r: int, keep_all: bool = False):
        if m < 1 or r < 1:
            raise ValueError("CountingContext requires m >= 1 and r >= 1")
        self.m, self.r = m, r
        base = [[0] * (m + 1) for _ in range(m + 1)]
        for mm in range(m + 1):
            base[mm][0] = 1  # T(mm, 0, 0, r) = 1
        self._layers = Layers(base, r, keep_all)
        self._n_sums = [1]  # N(m, nn) history

    def extend(self, n: int) -> None:
        m, r, layers = self.m, self.r, self._layers
        while layers.n < n:
            nn = layers.n + 1
            prev, back = layers.back(0), layers.back(r)
            c = binomial(nn - 1, r)
            layer = [[0] * (m + 1) for _ in range(m + 1)]
            for mm in range(1, m + 1):
                row, prow = layer[mm], prev[mm]
                brow = back[mm - 1] if c else None
                for kk in range(1, min(mm, nn) + 1):
                    if nn > kk * r:
                        continue  # kk days cannot hold nn birthdays
                    val = (mm - kk + 1) * prow[kk - 1] + kk * prow[kk]
                    if c:
                        val -= mm * c * brow[kk - 1]
                    if val < 0:
                        raise NegativeCountError(
                            "counting fill went negative at m=%d n=%d k=%d r=%d"
                            % (mm, nn, kk, r)
                        )
                    row[kk] = val
            layers.append(layer)
            self._n_sums.append(sum(layer[m]))

    def t_value(self, mm: int, nn: int, kk: int) -> int:
        """T(mm, nn, kk, r); layers behind the window raise ValueError."""
        if kk < 0 or kk > self.m:
            return 0
        self.extend(nn)
        return self._layers[nn][mm][kk]

    def count(self, n: int, mm: int | None = None) -> int:
        """N(mm, n) = sum over kk of T(mm, n, kk, r)."""
        self.extend(n)
        if mm is None or mm == self.m:
            return self._n_sums[n]
        return sum(self._layers[n][mm])

    def prob(self, n: int, mm: int | None = None) -> Fraction:
        mm = self.m if mm is None else mm
        return Fraction(self.count(n, mm), mm ** n)


def count_valid(inst: ProblemInstance) -> int:
    if inst.n == 0:
        return 1
    if inst.n > inst.m * inst.r:
        return 0
    return CountingContext(inst.m, inst.r).count(inst.n)


# ---------------------------------------------------------------------------
# Restricted-Stirling route


class StirlingContext:
    """N(mm, nn) assembled from one shared restricted-Stirling table.

    Counts for the top mm are recorded as the table grows, so they stay
    queryable after the window mode drops old rows.
    """

    def __init__(self, m: int, r: int, keep_all: bool = False):
        if m < 1 or r < 1:
            raise ValueError("StirlingContext requires m >= 1 and r >= 1")
        self.m, self.r = m, r
        self._table = RestrictedStirling(r, k_cap=m, keep_all=keep_all)
        self._counts = [1]  # N(m, nn) history

    def _sum_row(self, row: list[int], n: int, mm: int) -> int:
        lo = -(-n // self.r)
        hi = min(mm, n)
        total = 0
        for k in range(lo, hi + 1):
            if k < len(row) and row[k]:
                # C(mm, k) * k! == mm falling-factorial k
                total += math.perm(mm, k) * row[k]
        return total

    def extend(self, n: int) -> None:
        while len(self._counts) <= n:
            nn = len(self._counts)
            row = self._table.row(nn)
            self._counts.append(self._sum_row(row, nn, self.m))

    def count(self, n: int, mm: int | None = None) -> int:
        mm = self.m if mm is None else mm
        if n == 0:
            return 1
        if n > mm * self.r:
            return 0
        self.extend(n)
        if mm == self.m:
            return self._counts[n]
        return self._sum_row(self._table.row(n), n, mm)

    def prob(self, n: int, mm: int | None = None) -> Fraction:
        mm = self.m if mm is None else mm
        return Fraction(self.count(n, mm), mm ** n)


def count_valid_stirling(inst: ProblemInstance) -> int:
    return StirlingContext(inst.m, inst.r).count(inst.n)


# ---------------------------------------------------------------------------
# Direct probability recurrence


def coeff_next(prev_coeff, m: int, n: int, r: int):
    """Step the correction coefficient from index n-1 to index n.

    Valid only for n >= r + 2; the seed at n = r + 1 is
    C(r, r) * (m-1)**0 / m**r == 1 / m**r.
    Works for exact (Fraction) and floating-point coefficients alike.
    """
    if n < r + 2:
        raise ValueError("coeff_next requires n >= r + 2 (seed covers n = r + 1)")
    return prev_coeff * ((n - 1) * (m - 1)) / ((n - 1 - r) * m)


def coeff_direct(m: int, n: int, r: int) -> Fraction:
    """The correction coefficient C(n-1, r) * (m-1)**(n-1-r) / m**(n-1)."""
    if n - 1 - r < 0:
        return Fraction(0)
    return Fraction(binomial(n - 1, r) * (m - 1) ** (n - 1 - r), m ** (n - 1))


class DirectContext:
    """Exact direct recurrence, carried on valid-configuration counts.

    Internally the rational P(mm, nn) is held as the integer count
    T(mm, nn) over the implicit denominator mm**nn, which turns the
    probability recurrence into a pure integer one:

        T(mm, nn) = mm * T(mm, nn-1) - mm * C(nn-1, r) * T(mm-1, nn-1-r)

    Layers over nn hold all mm at once; the trailing r+1 layers are kept
    (every layer with keep_all) plus the full top-row (mm = m) history, so
    a search can query any already-filled n.  The table only ever grows in
    n.
    """

    def __init__(self, m: int, r: int, keep_all: bool = False):
        if m < 1 or r < 1:
            raise ValueError("DirectContext requires m >= 1 and r >= 1")
        self.m, self.r = m, r
        # T(mm, 0) = 1, including mm = 0
        self._layers = Layers([1] * (m + 1), r, keep_all)
        self._top = [1]

    def extend(self, n: int) -> None:
        m, r, layers = self.m, self.r, self._layers
        while layers.n < n:
            nn = layers.n + 1
            prev, back = layers.back(0), layers.back(r)
            c = binomial(nn - 1, r)
            layer = [0] * (m + 1)
            for mm in range(1, m + 1):
                if nn > mm * r:
                    continue  # impossible by pigeonhole
                val = mm * prev[mm]
                if c:
                    val -= mm * c * back[mm - 1]
                    if val < 0:
                        raise NegativeCountError(
                            "direct fill went negative at m=%d n=%d r=%d"
                            % (mm, nn, r)
                        )
                layer[mm] = val
            layers.append(layer)
            self._top.append(layer[m])

    def count(self, n: int, mm: int | None = None) -> int:
        self.extend(n)
        if mm is None or mm == self.m:
            return self._top[n]
        return self._layers[n][mm]

    def prob(self, n: int, mm: int | None = None) -> Fraction:
        mm = self.m if mm is None else mm
        if n == 0:
            return Fraction(1)
        return Fraction(self.count(n, mm), mm ** n)

    def prob_at_least(self, n: int, gamma: Fraction) -> bool:
        """P(m, n, r) >= gamma without building a reduced Fraction."""
        t = self.count(n)
        return gamma.denominator * t >= gamma.numerator * self.m ** n


class FloatDirectContext:
    """Direct recurrence in floating point, coefficients kept incrementally.

    Plain doubles by default; pass precision (mantissa bits) to run on
    mpmath floats instead.  Small negative round-off is clamped to zero.
    """

    def __init__(self, m: int, r: int, precision: int | None = None):
        if m < 1 or r < 1:
            raise ValueError("FloatDirectContext requires m >= 1 and r >= 1")
        self.m, self.r = m, r
        self.precision = precision
        if precision is None:
            self._num = float
        else:
            import mpmath

            self._mp = mpmath.mp.clone()
            self._mp.prec = precision
            self._num = self._mp.mpf
        one, zero = self._num(1), self._num(0)
        self._one, self._zero = one, zero
        self._layers = Layers([one] * (m + 1), r)
        self._top = [one]
        self._coeffs: list = [zero] * (m + 1)  # c(mm, nn) for the next step

    def extend(self, n: int) -> None:
        m, r, layers = self.m, self.r, self._layers
        num = self._num
        while layers.n < n:
            nn = layers.n + 1
            prev, back = layers.back(0), layers.back(r)
            coeffs = self._coeffs
            if nn == r + 1:
                for mm in range(1, m + 1):
                    coeffs[mm] = self._one / num(mm) ** r
            elif nn >= r + 2:
                for mm in range(1, m + 1):
                    coeffs[mm] = coeff_next(coeffs[mm], mm, nn, r)
            layer = [self._zero] * (m + 1)
            for mm in range(1, m + 1):
                if nn > mm * r:
                    continue
                val = prev[mm]
                if back is not None:
                    val = val - coeffs[mm] * back[mm - 1]
                    if val < 0:
                        val = self._zero
                layer[mm] = val
            layers.append(layer)
            self._top.append(layer[m])

    def prob(self, n: int, mm: int | None = None) -> float:
        self.extend(n)
        if mm is None or mm == self.m:
            val = self._top[n]
        else:
            raise ValueError("FloatDirectContext keeps only the top row")
        val = float(val)
        return min(max(val, 0.0), 1.0)

    def grid(self, n: int) -> list[list[float]]:
        """All P(mm, nn) for nn <= n as floats; refills with full retention."""
        fresh = FloatDirectContext(self.m, self.r, self.precision)
        rows: list[list[float]] = [[1.0] * (n + 1) for _ in range(self.m + 1)]
        for nn in range(1, n + 1):
            fresh.extend(nn)
            layer = fresh._layers[nn]
            for mm in range(self.m + 1):
                rows[mm][nn] = min(max(float(layer[mm]), 0.0), 1.0)
        for nn in range(1, n + 1):
            rows[0][nn] = 0.0
        return rows


# ---------------------------------------------------------------------------
# Column recurrence


class ColumnContext:
    """Valid-assignment counts N(m, n, r) for one m, O(r) big-int steps per n.

    N(m, n, r) = n! [x^n] (sum_{j<=r} x^j / j!)^m (Flajolet & Sedgewick,
    Analytic Combinatorics, II.3).  J. C. P. Miller's power-of-series
    recurrence (Knuth, TAOCP Vol. 2, 4.7) expands it on integers:

        n N_n = sum_{j=1..min(r,n)} ((m+1) j - n) C(n, j) N_{n-j},  N_0 = 1

    and the division by n is exact term by term, since j C(n, j) =
    n C(n-1, j-1); a remainder can only come from broken coefficient
    arithmetic.  Only the top-m column is held, so sub-m queries are
    refused; m**n is kept alongside the counts so that probabilities never
    recompute a power.
    """

    def __init__(self, m: int, r: int):
        if m < 1 or r < 1:
            raise ValueError("ColumnContext requires m >= 1 and r >= 1")
        self.m, self.r = m, r
        self._counts = [1]
        self._pows = [1]  # m**n

    def extend(self, n: int) -> None:
        m1, r = self.m + 1, self.r
        counts, pows = self._counts, self._pows
        while len(counts) <= n:
            nn = len(counts)
            total = 0
            c = 1  # C(nn, j)
            for j in range(1, min(r, nn) + 1):
                c = c * (nn - j + 1) // j
                total += (m1 * j - nn) * c * counts[nn - j]
            val, rem = divmod(total, nn)
            if rem or val < 0:
                raise NegativeCountError(
                    "column fill lost exactness at m=%d n=%d r=%d" % (self.m, nn, r)
                )
            counts.append(val)
            pows.append(pows[-1] * self.m)

    def count(self, n: int, mm: int | None = None) -> int:
        if mm is not None and mm != self.m:
            raise ValueError("ColumnContext holds only m=%d" % self.m)
        self.extend(n)
        return self._counts[n]

    def prob(self, n: int, mm: int | None = None) -> Fraction:
        return Fraction(self.count(n, mm), self._pows[n])

    def prob_at_least(self, n: int, gamma: Fraction) -> bool:
        """P(m, n, r) >= gamma without building a reduced Fraction."""
        t = self.count(n)
        return gamma.denominator * t >= gamma.numerator * self._pows[n]


# ---------------------------------------------------------------------------
# Dispatch


def make_context(m: int, r: int, algorithm: AlgorithmId):
    """A reusable probability context for the given exact algorithm."""
    if algorithm is AlgorithmId.DAY_AT_A_TIME:
        return DayContext(m, r)
    if algorithm is AlgorithmId.COUNTING:
        return CountingContext(m, r)
    if algorithm is AlgorithmId.STIRLING:
        return StirlingContext(m, r)
    if algorithm is AlgorithmId.DIRECT:
        return DirectContext(m, r)
    if algorithm is AlgorithmId.COLUMN:
        return ColumnContext(m, r)
    raise ValueError("no incremental context for %s" % algorithm)


def prob_exact(inst: ProblemInstance, algorithm: AlgorithmId,
               max_compositions: int = DEFAULT_ORACLE_LIMIT) -> Fraction:
    """Single-shot exact probability via the chosen algorithm."""
    if algorithm is AlgorithmId.BRUTE_FORCE:
        return prob_bruteforce(inst, max_compositions)
    if inst.r >= inst.n:
        return Fraction(1)
    if inst.n > inst.m * inst.r:
        return Fraction(0)
    return make_context(inst.m, inst.r, algorithm).prob(inst.n)
