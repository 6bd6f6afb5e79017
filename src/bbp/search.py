"""The largest n keeping P(m, n, r) at or above a threshold, by a forward walk.

P is nonincreasing in n and hits zero past n = m*r (pigeonhole), so n_max
lies in [0, m*r].  Every context fills all of 0..n to answer n, so the
search walks up from 0 and stops at the first n with P < gamma: the fill
ends exactly at n_max + 1, and the two cells it ends on are the certificate.
Thresholds are exact rationals, and every comparison that decides the
answer is exact or provably rounds the right way.  The exact search is one
column fill, O(r) per n whatever m is, that tests the threshold as it goes:
each n costs r big multiply-adds and one compare of the count times gamma's
denominator against gamma's numerator times m**n.
Past 3000 bits (r <= 100) the fill steps integer EGF coefficients instead,
with one-digit multipliers and one exact division by n, and tests P in float
log2, with the exact compare inside a proven bound on its rounding error.  A
table cell and plain `nmax` output ask for n_max alone (certify=False), which
skips building the two reduced certificate Fractions.  Mode.FLOAT, kept for
`table --float-above`, walks a floating-point direct context to a guess s,
the largest n with float P >= float(gamma), and checks it on one exact
direct fill to s + 1: if P(s) >= gamma > P(s + 1), n_max = s and the
certificate is read from that fill; otherwise the exact column search runs.
A slower cross-check whose answer and certificate equal the exact ones.
"""

from __future__ import annotations

from fractions import Fraction

from .solvers import (ColumnContext, DirectContext, FloatDirectContext, Mode,
                      ProblemInstance, Record)


class SearchRequest(Record):
    def __init__(self, m: int, r: int, gamma: Fraction = Fraction(1, 2),
                 mode: Mode = Mode.EXACT):
        self.m = m
        self.r = r
        self.gamma = gamma
        self.mode = mode


class SearchResult(Record):
    """n_max and its certificate, P(n_max) >= gamma > P(n_max + 1); the two
    probabilities are None when the search was asked for n_max alone."""

    def __init__(self, n_max: int, p_at_nmax: Fraction | None,
                 p_at_nmax_plus_1: Fraction | None):
        self.n_max = n_max
        self.p_at_nmax = p_at_nmax
        self.p_at_nmax_plus_1 = p_at_nmax_plus_1


def check_gamma(gamma: Fraction) -> None:
    """Refuse a threshold outside (0, 1]: every n meets gamma <= 0, so n_max
    is unbounded, and P(m, 0) = 1 meets no gamma above 1."""
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")


def find_nmax(req: SearchRequest, certify: bool = True) -> SearchResult:
    """The unique n in [0, m*r] with P(m, n, r) >= gamma > P(m, n+1, r),
    with the two probabilities that certify it unless certify is False."""
    check_gamma(req.gamma)
    ProblemInstance(req.m, 0, req.r)  # refuses m < 1 or r < 1
    m, r, gamma = req.m, req.r, req.gamma
    hi_bound = m * r

    ctx = None
    if req.mode is Mode.FLOAT:
        fctx, g, n_max = FloatDirectContext(m, r), float(gamma), 0
        while n_max < hi_bound and fctx.prob(n_max + 1) >= g:
            n_max += 1
        ctx = DirectContext(m, r)
        ctx.extend(n_max + 1)  # one horizon for the check and the certificate
        if not ctx.prob_at_least(n_max, gamma) or ctx.prob_at_least(n_max + 1, gamma):
            ctx = None  # the exact check refutes the float guess
    if ctx is None:
        ctx = ColumnContext(m, r)
        # P(m*r + 1) = 0 < gamma, so the fill stops at n_max + 1 at the latest.
        n_max = ctx.extend(hi_bound + 1, below=gamma) - 1
    if not certify:
        return SearchResult(n_max, None, None)
    return SearchResult(
        n_max=n_max,
        p_at_nmax=ctx.prob(n_max),
        p_at_nmax_plus_1=ctx.prob(n_max + 1) if n_max < hi_bound else Fraction(0),
    )
