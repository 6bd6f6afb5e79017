"""The largest n keeping P(m, n, r) at or above a threshold, by a forward walk.

P is nonincreasing in n and hits zero past n = m*r (pigeonhole), so n_max
lies in [0, m*r].  Every context fills all of 0..n to answer n, so the
search walks up from 0 and stops at the first n with P < gamma: the fill
ends exactly at n_max + 1, and the two cells it ends on are the certificate.
Thresholds are exact rationals and every comparison that decides the
answer is exact.  The exact search walks the column context, which costs
O(r) per n whatever m is.  Float mode is the float-guided direct search, a
slower cross-check: it walks a floating-point direct context first to find
a starting point, then walks the exact direct context from there to the
true crossing, so its answer and certificate equal the exact ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .solvers import ColumnContext, DirectContext, FloatDirectContext, Mode


@dataclass
class SearchRequest:
    m: int
    r: int
    gamma: Fraction = field(default_factory=lambda: Fraction(1, 2))
    mode: Mode = Mode.EXACT


@dataclass
class SearchResult:
    n_max: int
    p_at_nmax: Fraction
    p_at_nmax_plus_1: Fraction


def _check_gamma(gamma: Fraction) -> None:
    if gamma <= 0:
        raise ValueError("gamma must be positive (n_max is unbounded otherwise)")
    if gamma > 1:
        raise ValueError("gamma must be at most 1")


def _walk(at_least, start: int, hi_bound: int) -> int:
    """The largest n in [0, hi_bound] with at_least(n), stepping from start.

    at_least must hold at 0 and be monotone: true up to the answer, false
    after it.
    """
    n = start
    while n > 0 and not at_least(n):
        n -= 1
    while n < hi_bound and at_least(n + 1):
        n += 1
    return n


def find_nmax(req: SearchRequest) -> SearchResult:
    """The unique n in [0, m*r] with P(m, n, r) >= gamma > P(m, n+1, r)."""
    _check_gamma(req.gamma)
    m, r, gamma = req.m, req.r, req.gamma
    hi_bound = m * r

    start = 0
    if req.mode is Mode.FLOAT:
        fctx = FloatDirectContext(m, r)
        g = float(gamma)
        start = _walk(lambda n: fctx.prob(n) >= g, 0, hi_bound)
        ctx = DirectContext(m, r)
    else:
        ctx = ColumnContext(m, r)

    n_max = _walk(lambda n: ctx.prob_at_least(n, gamma), start, hi_bound)
    return SearchResult(
        n_max=n_max,
        p_at_nmax=ctx.prob(n_max),
        p_at_nmax_plus_1=ctx.prob(n_max + 1) if n_max < hi_bound else Fraction(0),
    )
