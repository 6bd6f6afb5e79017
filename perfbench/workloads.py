"""Seeded operation lists for the three benchmark workloads.

Every generator is a pure function of its seed and pass number: a run
sends pass 0, then pass 1, and so on, each a fresh list drawn from the
same distribution, so repeated passes add distinct samples to the latency
tail instead of repeating the same ones.  The random draws are
systematic samples: k draws of a variable sit at (i + shift) / k for
i = 0..k-1, with one random shift per variable.  Each draw is still
uniform over its stratum, so the marginal distributions are the ones named
below, but the cost of a whole list barely moves from seed to seed.  That
keeps the end-to-end figures of different seeds comparable.  The seed also
picks thresholds and output formats and shuffles the order.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

# The published n_max grid for gamma = 1/2, rows r = 1..10, restricted to
# the columns the table workload runs.  The m = 1000 column is left out:
# its r = 10 cell alone takes about 17 s on a 2-core machine and runs the
# same float-guided code path as m = 500.
TABLE_DAYS = (10, 25, 50, 100, 200, 365, 500)
TABLE_CAPS = tuple(range(1, 11))
PUBLISHED_TABLE = {
    1: (4, 6, 8, 12, 16, 22, 26),
    2: (9, 15, 24, 37, 59, 87, 106),
    3: (15, 27, 45, 73, 121, 186, 234),
    4: (21, 41, 69, 116, 197, 312, 398),
    5: (28, 56, 95, 164, 284, 459, 590),
    6: (35, 71, 124, 216, 380, 622, 805),
    7: (42, 88, 154, 272, 483, 797, 1038),
    8: (49, 104, 185, 330, 591, 984, 1286),
    9: (57, 121, 217, 390, 704, 1180, 1548),
    10: (65, 139, 250, 452, 822, 1384, 1820),
}
TABLE_JOBS = 2

# Exact thresholds between 1/1000 and 1 for the nmax stream.
NMAX_GAMMAS = tuple(Fraction(g) for g in (
    "1/1000", "1/100", "1/10", "1/4", "1/2", "2/3", "9/10", "99/100", "1"))
NMAX_QUERIES = 120  # a multiple of 10, and >= 100 so that >= 10 lie above p90
POINT_PROB_QUERIES = 60
POINT_COUNT_QUERIES = 60  # a multiple of 10
POINT_PROB_FORMATS = ("frac", "dec", "json")


@dataclass(frozen=True)
class Op:
    """One CLI call and the parameters the correctness gate checks it by."""

    kind: str  # "table" | "nmax" | "prob" | "count"
    argv: tuple[str, ...]
    m: int = 0
    n: int = 0
    r: int = 0
    gamma: Fraction | None = None
    fmt: str = ""  # prob output format

    @property
    def cells(self) -> int:
        """Operations this call stands for: table cells, or one query."""
        return len(TABLE_DAYS) * len(TABLE_CAPS) if self.kind == "table" else 1


def _strata(rng: random.Random, k: int) -> list[float]:
    """k points of [0, 1), one inside each of k equal strata, equally spaced
    with a random shift."""
    shift = rng.random()
    return [(i + shift) / k for i in range(k)]


def _spread(values: list[float]) -> list[float]:
    """A fixed permutation (len(values) must not be a multiple of 7): paired
    index by index with another list from _strata, low strata of one meet
    strata spread evenly over the other."""
    k = len(values)
    return [values[(i * 7) % k] for i in range(k)]


def _log_scale(u: float, lo: int, hi: int) -> int:
    return round(lo * (hi / lo) ** u)


def table_ops(seed: int, pass_index: int = 0) -> list[Op]:
    """The paper's artifact; neither seed nor pass changes it."""
    argv = ("table",
            "--days", ",".join(str(m) for m in TABLE_DAYS),
            "--max-per-day", "%d..%d" % (TABLE_CAPS[0], TABLE_CAPS[-1]),
            "--gamma", "1/2", "--jobs", str(TABLE_JOBS), "--format", "csv")
    return [Op("table", argv)]


def nmax_ops(seed: int, pass_index: int = 0) -> list[Op]:
    """Exact n_max queries: m log-uniform over [10, 400], r uniform over
    1..10 (each cap sees the whole m range), gamma drawn from NMAX_GAMMAS."""
    rng = random.Random("nmax:%d:%d" % (seed, pass_index))
    ops = []
    for i, u in enumerate(_strata(rng, NMAX_QUERIES)):
        m, r = _log_scale(u, 10, 400), i % 10 + 1
        gamma = rng.choice(NMAX_GAMMAS)
        argv = ("nmax", "--days", str(m), "--max-per-day", str(r),
                "--gamma", "%d/%d" % (gamma.numerator, gamma.denominator),
                "--format", "json")
        ops.append(Op("nmax", argv, m=m, r=r, gamma=gamma))
    rng.shuffle(ops)
    return ops


def point_ops(seed: int, pass_index: int = 0) -> list[Op]:
    """Exact `prob` queries on wide, shallow instances (m log-uniform over
    [10, 10^5], n uniform over 2..64, r cycling over 1..10 but below n) mixed
    with `count` queries (m log-uniform over [10, 200], r uniform over 1..10,
    n uniform over 1..min(400, m*r))."""
    rng = random.Random("point:%d:%d" % (seed, pass_index))
    ops = []
    m_draws = _strata(rng, POINT_PROB_QUERIES)
    n_draws = _spread(_strata(rng, POINT_PROB_QUERIES))
    for i, (u, v) in enumerate(zip(m_draws, n_draws)):
        m, n = _log_scale(u, 10, 10 ** 5), 2 + int(v * 63)
        r = min(i % 10 + 1, n - 1)
        fmt = rng.choice(POINT_PROB_FORMATS)
        argv = ("prob", "--days", str(m), "--people", str(n),
                "--max-per-day", str(r), "--format", fmt)
        ops.append(Op("prob", argv, m=m, n=n, r=r, fmt=fmt))
    m_draws = _strata(rng, POINT_COUNT_QUERIES)
    n_draws = _spread(_strata(rng, POINT_COUNT_QUERIES))
    for i, (u, v) in enumerate(zip(m_draws, n_draws)):
        m, r = _log_scale(u, 10, 200), i % 10 + 1
        n = 1 + int(v * min(400, m * r))
        argv = ("count", "--days", str(m), "--people", str(n),
                "--max-per-day", str(r))
        ops.append(Op("count", argv, m=m, n=n, r=r))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"table": table_ops, "nmax": nmax_ops, "point": point_ops}


def argv_digest(ops: list[Op]) -> str:
    """SHA-256 over the argv lists in the order sent."""
    payload = json.dumps([list(op.argv) for op in ops], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
