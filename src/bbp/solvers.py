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
O(r) per n whatever m is, and the exact n_max search runs on it; past 3000
bits, and for r <= 100, it steps narrower integer EGF coefficients.  The
direct route fills only the cone of mm that P(m, n) depends on, O(min(m,
n/(r+1))) per n; the Stirling route fills O(min(n, m)) per row and sums
row n alone; the day route does m min(n, r) big-int multiply-adds per n and
counting O(m^2), and both serve as cross-checks.  `prob` defaults to direct
and `count` to Stirling.  Measured on large instances, not asserted, with
w = min(m, n/(r+1) + 1): column is faster than direct when r <= w, and for
r <= 100 up to r = 2.5 w (n_max at m = 50, r = 100: 0.61 s against 0.70 s);
direct is faster at r = 4.8 w (P(50, 2000, 100): 0.07-0.09 s against 0.16
s) and wherever r > 100 and r > w.

Every exact context fills integer counts N(mm, n) of valid assignments and
reads P(mm, n) = N(mm, n) / mm**n through one shared readout; `make_context`
picks the context for an `AlgorithmId` from one table, `CONTEXTS`.

The layered fills (counting, direct, float direct, restricted Stirling,
column) keep their layers in one `exact_arith.Layers` store: the trailing
window their recurrence looks back on, or every layer with keep_all.  All
but column advance through `Layers.fill`, which owns the loop and the
C(nn-1, r) carry; each supplies only its step, the recurrence body.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from operator import mul, sub

from .exact_arith import Layers, binomial
from .stirling import NegativeCountError, RestrictedStirling

# Bounded compositions the brute-force oracle may enumerate: 1 s at most, small n.
DEFAULT_ORACLE_LIMIT = 200_000
# Its bounds on n (one math.comb(n, n/2) takes 0.5 s at 200,000) and on
# compositions * m * n**2 (up to m steps per composition, each on integers
# about n bits wide), which keep admitted instances near 1 s.
ORACLE_MAX_N = 200_000
ORACLE_WORK_LIMIT = 10**12
# The column fill moves to the EGF step once N_n is wider than EGF_SWITCH_BITS,
# for r <= EGF_MAX_R: past that, its 720 coefficient rows of r integers
# outgrow the column window (m = 10, n = 2000, r = 1000: 295 MiB against
# 16 MiB, and 7.0 s against 5.4 s).
EGF_SWITCH_BITS = 3000
EGF_MAX_R = 100


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


class ProblemInstance(namedtuple("ProblemInstance", "m n r")):
    """m days in the year, n people, a cap of r birthdays per day."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, r: int):
        if m < 1:
            raise ValueError("m must be >= 1")
        if n < 0:
            raise ValueError("n must be >= 0")
        if r < 1:
            raise ValueError("r must be >= 1")
        return super().__new__(cls, m, n, r)


class Record:
    """Value equality and a field-by-field repr for a mutable record.

    The fields are the instance attributes, in the order __init__ sets them.
    """

    __hash__ = None  # mutable, so unhashable

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % item for item in vars(self).items()))


class _Context:
    """What every solver context shares: the m and r it serves, the check
    on a requested mm, and the exact readout P(mm, n) = N(mm, n) / mm**n of
    the integer count a subclass's count(n, mm) returns.
    """

    top_only = False  # True for a context that holds mm = m alone

    def __init__(self, m: int, r: int):
        if m < 1 or r < 1:
            raise ValueError("%s requires m >= 1 and r >= 1" % type(self).__name__)
        self.m, self.r = m, r

    def _mm(self, mm: int | None) -> int:
        """mm, or m when mm is None; an mm the context does not hold raises
        ValueError."""
        if mm is None:
            return self.m
        lowest = self.m if self.top_only else 0
        if not lowest <= mm <= self.m:
            raise ValueError("%s holds only %d <= mm <= %d"
                             % (type(self).__name__, lowest, self.m))
        return mm

    def prob(self, n: int, mm: int | None = None) -> Fraction:
        mm = self._mm(mm)
        if mm == 0 and n > 0:
            raise ValueError("P(0, n) is undefined for n > 0: no day to land on")
        return Fraction(self.count(n, mm), mm ** n)


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

    A branch puts k >= 1 people on the next occupied day b only if the days
    after b hold the rest: every branch ends in a composition, and empty days
    are never walked.  A stack of lazy iterators, one per occupied day, holds
    the walk, since its depth and its breadth can both reach n.
    """
    m, n, r = inst.m, inst.n, inst.r
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
            coeffs = [binomial(nn, k) for k in range(nn - low, -1, -1)]
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

    A layer holds the full (mm, kk) plane for one value of nn; the
    recurrence looks back 1 and r+1 layers, so only the trailing r+1
    layers are retained unless keep_all is requested, and a read of a
    dropped nn raises ValueError, at mm = m too.  Inadmissible kk stay 0,
    so N(mm, nn) is the sum of row mm.
    """

    def __init__(self, m: int, r: int, keep_all: bool = False):
        super().__init__(m, r)
        base = [[0] * (m + 1) for _ in range(m + 1)]
        for mm in range(m + 1):
            base[mm][0] = 1  # T(mm, 0, 0, r) = 1
        self._layers = Layers(base, r, keep_all)

    def extend(self, n: int) -> None:
        self._layers.fill(n, self._step)

    def _step(self, nn: int, prev, back, c: int) -> list[list[int]]:
        m, r = self.m, self.r
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
    k = m, so mm > m is refused.
    """

    def __init__(self, m: int, r: int, keep_all: bool = False):
        super().__init__(m, r)
        self._table = RestrictedStirling(r, k_cap=m, keep_all=keep_all)

    def _sum_row(self, row: list[int], n: int, mm: int) -> int:
        lo = -(-n // self.r)
        total = 0
        falling = math.perm(mm, lo)  # C(mm, k) * k! == mm falling-factorial k
        for k in range(lo, min(mm, n) + 1):  # the row holds k <= min(n, m)
            if row[k]:
                total += falling * row[k]
            falling *= mm - k
        return total

    def extend(self, n: int) -> None:
        self._table.extend(n)

    def count(self, n: int, mm: int | None = None) -> int:
        mm = self._mm(mm)
        if n == 0:
            return 1  # no row read: a window that dropped row 0 still answers
        self.extend(n)
        return self._sum_row(self._table.row(n), n, mm)


def count_valid_stirling(inst: ProblemInstance) -> int:
    return count_exact(inst, AlgorithmId.STIRLING)


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


class DirectContext(_Context):
    """Exact direct recurrence, carried on valid-configuration counts.

    Internally the rational P(mm, nn) is held as the integer count
    T(mm, nn) over the implicit denominator mm**nn, which turns the
    probability recurrence into a pure integer one:

        T(mm, nn) = mm * T(mm, nn-1) - mm * C(nn-1, r) * T(mm-1, nn-1-r)

    The recurrence steps mm down by one only every r+1 layers, so T(m, n)
    depends on at most n/(r+1) + 1 values of mm.  In window mode a layer
    holds only that cone: the layer at nn holds mm in [lo(nn), m], with

        lo(nn) = max(0, low - (H - nn) // (r+1)),

    where H is the highest n the context serves and low the lowest mm it
    has been asked for (m until a sub-m read).  lo(nn-1-r) = lo(nn) - 1, so
    every term a layer reads lies inside the bands before it.  An extend
    past H refills from layer 0 with H doubled, so filling to n costs
    O(min(m, n/(r+1))) per n.  A sub-m read below the band refills at full
    width, and keep_all holds every layer at full width.  The trailing r+1
    layers are kept (every layer with keep_all) plus the full top-row
    (mm = m) history, so a search can query any already-filled n.
    """

    def __init__(self, m: int, r: int, keep_all: bool = False):
        super().__init__(m, r)
        self._keep_all = keep_all
        self._restart(0, 0 if keep_all else m)

    def _lo(self, nn: int) -> int:
        """The lowest mm the layer at nn holds."""
        return max(0, self._low - (self._horizon - nn) // (self.r + 1))

    def _restart(self, horizon: int, low: int) -> None:
        """Drop every layer and start again from layer 0, T(mm, 0) = 1."""
        self._horizon, self._low = horizon, low
        self._layers = Layers([1] * (self.m - self._lo(0) + 1), self.r,
                              self._keep_all)
        self._top = [1]

    def extend(self, n: int) -> None:
        if n > self._horizon:
            if self._low:
                self._restart(max(2 * self._horizon, n), self._low)
            else:
                self._horizon = n  # full width: lo(nn) stays 0
        self._layers.fill(n, self._step)

    def _step(self, nn: int, prev: list[int], back, c: int) -> list[int]:
        m, r = self.m, self.r
        lo = self._lo(nn)
        lo_prev, lo_back = self._lo(nn - 1), self._lo(nn - 1 - r)
        layer = [0] * (m - lo + 1)
        for mm in range(max(lo, 1), m + 1):
            if nn > mm * r:
                continue  # impossible by pigeonhole
            val = mm * prev[mm - lo_prev]
            if c:
                val -= mm * c * back[mm - 1 - lo_back]
                if val < 0:
                    raise NegativeCountError(
                        "direct fill went negative at m=%d n=%d r=%d"
                        % (mm, nn, r)
                    )
            layer[mm - lo] = val
        self._top.append(layer[-1])
        return layer

    def count(self, n: int, mm: int | None = None) -> int:
        mm = self._mm(mm)
        self.extend(n)
        if mm == self.m:
            return self._top[n]
        layer = self._layers[n]  # a dropped layer raises ValueError
        if mm < self._lo(n):
            filled = self._layers.n
            self._restart(self._horizon, 0)
            self.extend(filled)
            layer = self._layers[n]
        return layer[mm - self._lo(n)]

    def prob(self, n: int, mm: int | None = None) -> Fraction:
        if n == 0:  # P(mm, 0) = 1, read without refilling below the band
            self._mm(mm)
            return Fraction(1)
        return super().prob(n, mm)

    def prob_at_least(self, n: int, gamma: Fraction) -> bool:
        """P(m, n, r) >= gamma without building a reduced Fraction."""
        t = self.count(n)
        return gamma.denominator * t >= gamma.numerator * self.m ** n


class FloatDirectContext(_Context):
    """Direct recurrence in doubles, coefficients kept incrementally.

    A cross-check of the exact routes, not a way to a float answer: the
    exact count over m**n, divided once, is the correctly rounded double
    and is faster on the column route.  Negative round-off is clamped to
    zero, and the recurrence only subtracts, so every value lies in [0, 1].
    Layers hold P(mm, nn) for every mm <= m, and only the trailing r+1 are
    kept: prob reads the top row of one of them, and a dropped n raises
    ValueError.  grid keeps every layer of a fresh fill.
    """

    top_only = True

    def __init__(self, m: int, r: int):
        super().__init__(m, r)
        self._layers = Layers([1.0] * (m + 1), r)
        self._coeffs = [0.0] * (m + 1)  # c(mm, nn) for the next step

    def extend(self, n: int) -> None:
        self._layers.fill(n, self._step)

    def _step(self, nn: int, prev: list[float], back, c: int) -> list[float]:
        m, r, coeffs = self.m, self.r, self._coeffs
        if nn == r + 1:
            for mm in range(1, m + 1):
                coeffs[mm] = 1.0 / float(mm) ** r
        elif nn >= r + 2:
            for mm in range(1, m + 1):
                coeffs[mm] = coeff_next(coeffs[mm], mm, nn, r)
        layer = [0.0] * (m + 1)
        for mm in range(1, m + 1):
            if nn > mm * r:
                continue
            val = prev[mm]
            if back is not None:
                val -= coeffs[mm] * back[mm - 1]
                if val < 0:
                    val = 0.0
            layer[mm] = val
        return layer

    def prob(self, n: int, mm: int | None = None) -> float:
        self._mm(mm)
        self.extend(n)
        return self._layers[n][self.m]

    def grid(self, n: int) -> list[list[float]]:
        """All P(mm, nn) for nn <= n as floats, rows by mm."""
        layers = Layers([1.0] * (self.m + 1), self.r, keep_all=True)
        layers.fill(n, FloatDirectContext(self.m, self.r)._step)
        return [list(row) for row in zip(*layers.items)]


# ---------------------------------------------------------------------------
# Column recurrence


class _EgfScale:
    """Integer scaling of the EGF coefficients u_n = N_n / n! for one (m, r).

    V_n = u_n Q_n with Q_n = prod_{p <= r prime} p^floor(n / d_p), where d_p
    is the largest divisor of 720 not above p - 1.  Legendre's formula gives
    v_p(j!) <= floor((j - 1) / (p - 1)), so the denominator of every term
    prod 1/k_i! of u_n divides Q_n and V_n is an integer.  So is

        H_j(n) = Q_n / (Q_{n-j} j!),

    and it depends on n mod L alone, L = lcm(d_p), which divides 720.
    Miller's recurrence n u_n = sum_j ((m+1) j - n) u_{n-j} / j! becomes

        n V_n = sum_{j=1..r} c_j(n) V_{n-j},   c_j(n) = ((m+1) j - n) H_j(n),

    and c(n) = c(n - L) - L H(n mod L): one vector subtraction a step.
    `rows[n mod L]` holds [c(n), L H] for the latest n of that residue,
    each aligned with the window as [0, x_r, ..., x_1], and is built when
    its residue is first reached, by H_j(n) = H_{j-1}(n) g(n-j+1) / j with
    g(n) = Q_n / Q_{n-1}.
    """

    def __init__(self, m: int, r: int):
        self.m, self.r = m, r
        divisors = [d for d in range(1, r) if 720 % d == 0]
        primes = [p for p in range(2, r + 1)
                  if all(p % q for q in range(2, math.isqrt(p) + 1))]
        self.periods = [(p, max(d for d in divisors if d < p)) for p in primes]
        self.period = L = math.lcm(*(d for _, d in self.periods))
        self.g = [math.prod(p for p, d in self.periods if k % d == 0)
                  for k in range(L)]
        log2m = math.log2(m)
        self.log2_step = [math.log2(g) + log2m for g in self.g]  # log2(g(n) m)
        self.log2_bound = log2m + sum(math.log2(p) for p, _ in self.periods) + 1
        self.rows: list[list[list[int]] | None] = [None] * L
        self.log2_p = 0.0  # log2(n! / (Q_n m**n)) at the newest n, as a float

    def q(self, n: int) -> int:
        """Q_n."""
        return math.prod(p ** (n // d) for p, d in self.periods)

    def row(self, n: int) -> list[list[int]]:
        """Build and keep the row of n."""
        h, L = [1], self.period
        for j in range(1, self.r + 1):
            h.append(h[-1] * self.g[(n - j + 1) % L] // j)
        a, js = self.m + 1, range(self.r, 0, -1)
        row = self.rows[n % L] = [[0] + [(a * j - n) * h[j] for j in js],
                                  [0] + [L * h[j] for j in js]]
        return row

    def margin(self, n: int, log2_gamma: float) -> float:
        """A bound on the rounding error of log2(V_k) + log2_p - log2_gamma
        at every k <= n.

        Every float in that sum is below B = n (log2 n + log2 m + sum log2 p
        + 1) + |log2_gamma| + 1 in size: log2(k!) <= k log2 k, log2 Q_k <= k
        sum log2 p, and 1 <= V_k <= m**k Q_k / k!.  Each math.log2 is within
        an ulp of its result, so the start of log2_p, each of the k steps
        added to it, and the readout log2(V_k) - log2_gamma each carry at
        most 4 ulp(B): 4 (k + 2) ulp(B) in all, which the margin doubles.
        Plain accumulation drifts by about k ulp(|log2_p|), which passes
        1e-6 near k = 10^5, so no fixed margin holds at every n.
        """
        bound = n * (math.log2(n) + self.log2_bound) + abs(log2_gamma) + 1
        return 8 * (n + 8) * math.ulp(bound)


class ColumnContext(_Context):
    """Valid-assignment counts N(m, n, r) for one m, O(r) big-int steps per n.

    N(m, n, r) = n! [x^n] (sum_{j<=r} x^j / j!)^m (Flajolet & Sedgewick,
    Analytic Combinatorics, II.3).  J. C. P. Miller's power-of-series
    recurrence (Knuth, TAOCP Vol. 2, 4.7), n N_n = sum_{j=1..min(r,n)}
    ((m+1) j - n) C(n, j) N_{n-j}, is stepped with the division by n taken
    out of each coefficient, where it is exact (j C(n, j) = n C(n-1, j-1)):

        N_n = sum_{j=1..r} a_j(n) N_{n-j},   a_j(n) = m C(n-1, j-1) - C(n-1, j),

    so a step multiplies each big count by a coefficient n times smaller
    than Miller's and divides nothing; a negative count can only come from
    broken arithmetic.  Pascal's rule steps the coefficients with r small
    additions, a_j(n+1) = a_j(n) + a_{j-1}(n) with a_0 = -1.  The window
    starts as r zeros (N_n = 0 for n < 0) below N_0 = 1, so the same step
    gives N_n = m**n for n <= r.

    The window holds d N_n, d the denominator of the latest threshold a fill
    ran under (1 before any), so the test P(m, n) < num/d is the one compare
    d N_n < num m**n, its bound advanced by one multiply by m a step; a new
    denominator rescales the window once.  Only the top-m column is held,
    so sub-m queries are refused, and only its trailing r+1 counts: the
    recurrence looks back r, and a search reads n_max after filling n_max+1.

    Once N_n passes 2**EGF_SWITCH_BITS, with r <= EGF_MAX_R, the fill
    switches for good to the integer EGF step of `_EgfScale`.  The window is
    converted once to V_k = N_k Q_k / k! (4396 bits against 16317 for N_k at
    m = 500, r = 10, n = 1820), whose multipliers are a digit or two wide,
    and each step divides by n exactly (a remainder or a negative V raises
    NegativeCountError).  The threshold test there reads P(m, n) = n! V_n /
    (Q_n m**n) in float log2, and inside `_EgfScale.margin` falls back to
    the exact compare d n! V_n < num m**n Q_n.  Short walks keep the column
    step, whose per-step Python cost is lower.  count(n) reads N_n = n! V_n
    / Q_n back, exactly.
    """

    top_only = True

    def __init__(self, m: int, r: int):
        super().__init__(m, r)
        self._counts = Layers(1, r)  # d N_n (d = self._scale), or V_n once _egf is set
        self._counts.items.extendleft([0] * r)  # N_n = 0 for n < 0
        self._scale = 1
        # _coeffs[i] multiplies window item i for the next n: 0 for the
        # oldest item, then a_r .. a_1, then a_0 = -1 for the Pascal step.
        self._coeffs = [0] * r + [m, -1]
        self._egf: _EgfScale | None = None

    def extend(self, n: int, below: Fraction | None = None) -> int:
        """Fill up to n, or with below only up to the first n it fills with
        P(m, n) < below; return the newest n filled."""
        if self._egf is None and not self._fill_column(n, below):
            return self._counts.n
        return self._fill_egf(n, below)

    def _fill_column(self, n: int, below: Fraction | None) -> bool:
        """The column steps of extend; True when N_n grew past the switch and
        the window now holds V."""
        m, r, layers = self.m, self.r, self._counts
        window, coeffs, nn = layers.items, self._coeffs, layers.n
        bound = 0  # with no threshold, val < 0 is the only stop
        if below is not None and nn < n:
            scale, old = below.denominator, self._scale
            if scale != old:
                for i, w in enumerate(window):
                    window[i] = w // old * scale
                self._scale = scale
            bound = below.numerator * m ** nn
        switch = self._scale << EGF_SWITCH_BITS if r <= EGF_MAX_R else math.inf
        pascal = range(1, r + 1)
        while nn < n:
            nn += 1
            val = sum(map(mul, coeffs, window))
            window.append(val)
            for i in pascal:
                coeffs[i] += coeffs[i + 1]
            bound *= m
            if val < bound:
                if val < 0:
                    layers.n = nn
                    raise NegativeCountError(
                        "column fill lost exactness at m=%d n=%d r=%d" % (m, nn, r)
                    )
                break
            if val > switch:
                layers.n = nn
                self._switch()
                return True
        layers.n = nn
        return False

    def _switch(self) -> None:
        """Convert the window from d N_k to V_k = N_k Q_k / k!."""
        m, r, window, nn = self.m, self.r, self._counts.items, self._counts.n
        egf = _EgfScale(m, r)
        low = max(nn - r, 0)
        fact, q = math.factorial(low), egf.q(low)
        for i, k in enumerate(range(nn - r, nn + 1)):
            if k > low:
                fact *= k
                q *= egf.g[k % egf.period]  # Q_k = Q_{k-1} g(k)
            if window[i]:
                v, rem = divmod(window[i] // self._scale * q, fact)
                if rem:
                    raise NegativeCountError(
                        "column count N_%d does not scale to an integer V at "
                        "m=%d r=%d" % (k, m, r))
                window[i] = v
        egf.row(nn)
        egf.log2_p = math.log2(fact) - math.log2(q) - nn * math.log2(m)
        self._egf = egf

    def _fill_egf(self, n: int, below: Fraction | None) -> int:
        """The EGF steps of extend."""
        m, r, layers, egf = self.m, self.r, self._counts, self._egf
        window, nn, log2_p, log2 = layers.items, layers.n, egf.log2_p, math.log2
        rows, period, log2_step = egf.rows, egf.period, egf.log2_step
        test = below is not None and below > 0 and nn < n
        if test:
            num, den = below.numerator, below.denominator
            log2_gamma = log2(num) - log2(den)
            margin = egf.margin(n, log2_gamma)
        while nn < n:
            nn += 1
            k = nn % period
            row = rows[k]
            if row is None:
                row = egf.row(nn)
            else:
                row[0] = list(map(sub, row[0], row[1]))
            v, rem = divmod(sum(map(mul, row[0], window)), nn)
            if rem or v < 0:
                layers.n = nn - 1
                raise NegativeCountError(
                    "column fill lost exactness at m=%d n=%d r=%d" % (m, nn, r))
            window.append(v)
            log2_p += log2(nn) - log2_step[k]
            if test:
                if not v:
                    break  # P = 0 < below
                x = log2(v) + log2_p - log2_gamma
                if x < margin and (x < -margin or den * math.factorial(nn) * v
                                   < num * m ** nn * egf.q(nn)):
                    break
        egf.log2_p = log2_p
        layers.n = nn
        return nn

    def count(self, n: int, mm: int | None = None) -> int:
        """N(m, n, r); an n behind the window raises ValueError."""
        self._mm(mm)
        self.extend(n)
        if self._egf is None:
            return self._counts[n] // self._scale
        count, rem = divmod(math.factorial(n) * self._counts[n], self._egf.q(n))
        if rem:
            raise NegativeCountError(
                "EGF value V_%d does not read out to an integer count at "
                "m=%d r=%d" % (n, self.m, self.r))
        return count


# ---------------------------------------------------------------------------
# Dispatch


CONTEXTS = {
    AlgorithmId.DAY_AT_A_TIME: DayContext,
    AlgorithmId.COUNTING: CountingContext,
    AlgorithmId.STIRLING: StirlingContext,
    AlgorithmId.DIRECT: DirectContext,
    AlgorithmId.COLUMN: ColumnContext,
}


def make_context(m: int, r: int, algorithm: AlgorithmId):
    """A reusable probability context for the given exact algorithm."""
    if algorithm not in CONTEXTS:
        raise ValueError("no incremental context for %s" % algorithm)
    return CONTEXTS[algorithm](m, r)


def prob_exact(inst: ProblemInstance, algorithm: AlgorithmId) -> Fraction:
    """Single-shot exact probability via the chosen algorithm."""
    if algorithm is AlgorithmId.BRUTE_FORCE:
        return prob_bruteforce(inst)
    if inst.r >= inst.n:
        return Fraction(1)
    if inst.n > inst.m * inst.r:
        return Fraction(0)
    return make_context(inst.m, inst.r, algorithm).prob(inst.n)


def count_exact(inst: ProblemInstance, algorithm: AlgorithmId) -> int:
    """Single-shot count of valid assignments via the chosen algorithm."""
    if algorithm is AlgorithmId.BRUTE_FORCE:
        return count_bruteforce(inst)
    if inst.n <= inst.r:
        return inst.m ** inst.n  # no cap binds, without a fill
    if inst.n > inst.m * inst.r:
        return 0  # pigeonhole, without a fill
    return make_context(inst.m, inst.r, algorithm).count(inst.n)
