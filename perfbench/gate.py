"""Correctness gate: every answer the benchmark receives is checked here.

Checks run outside the timed region.  The references are independent of
the route the CLI took: the table against its own copy of the published
values; every `nmax` certificate against the threshold and against the
column recurrence below, and a seeded sample of them against the
restricted-Stirling route; `prob` against the restricted-Stirling route and
`count` against the direct recurrence.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from bbp.exact_arith import big_int_strings
from bbp.solvers import AlgorithmId, DirectContext, ProblemInstance, make_context, prob_exact

from workloads import PUBLISHED_TABLE, TABLE_CAPS, TABLE_DAYS, Op

NMAX_REDERIVED = 4  # nmax answers per run re-derived by the Stirling route
DEC_DIGITS = 12  # the CLI's default --digits


def nmax_sample(ops: list[Op], seed: int) -> set[int]:
    """Indices of the nmax answers whose certificate cells are re-derived."""
    indices = [i for i, op in enumerate(ops) if op.kind == "nmax"]
    rng = random.Random("gate:%d" % seed)
    return set(rng.sample(indices, min(NMAX_REDERIVED, len(indices))))


def check(op: Op, stdout: str, rederive: bool = True) -> int:
    """Number of wrong cells in one answer (0 when it is right).

    A table counts each wrong or missing cell; a query counts one.
    `rederive` asks for the slow reference on an nmax answer as well as the
    certificate check.
    """
    with big_int_strings():
        try:
            if op.kind == "table":
                return _table_errors(stdout)
            if op.kind == "nmax":
                return 0 if _nmax_ok(op, stdout, rederive) else 1
            if op.kind == "prob":
                return 0 if _prob_ok(op, stdout) else 1
            return 0 if _count_ok(op, stdout) else 1
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            return op.cells  # unparsable output


def _table_errors(stdout: str) -> int:
    lines = stdout.splitlines()
    cells = len(TABLE_DAYS) * len(TABLE_CAPS)
    header = "r\\m," + ",".join(str(m) for m in TABLE_DAYS)
    if len(lines) != len(TABLE_CAPS) + 1 or lines[0] != header:
        return cells
    wrong = 0
    for r, line in zip(TABLE_CAPS, lines[1:]):
        fields = line.split(",")
        if fields[0] != str(r) or len(fields) != len(TABLE_DAYS) + 1:
            wrong += len(TABLE_DAYS)
            continue
        wrong += sum(int(got) != want
                     for got, want in zip(fields[1:], PUBLISHED_TABLE[r]))
    return wrong


def _nmax_ok(op: Op, stdout: str, rederive: bool) -> bool:
    doc = json.loads(stdout)
    n_max = doc["n_max"]
    p = Fraction(doc["p_at_nmax"])
    p_next = Fraction(doc["p_at_nmax_plus_1"])
    if (doc["m"], doc["r"], Fraction(doc["gamma"])) != (op.m, op.r, op.gamma):
        return False
    if not (isinstance(n_max, int) and 0 <= n_max <= op.m * op.r):
        return False
    if not p >= op.gamma > p_next:
        return False
    counts = column_counts(op.m, op.r, n_max + 1)
    if (p, p_next) != (Fraction(counts[-2], op.m ** n_max),
                       Fraction(counts[-1], op.m ** (n_max + 1))):
        return False
    if rederive:
        ctx = make_context(op.m, op.r, AlgorithmId.STIRLING)
        if ctx.prob(n_max) != p or ctx.prob(n_max + 1) != p_next:
            return False
    return True


def _prob_ok(op: Op, stdout: str) -> bool:
    want = prob_exact(ProblemInstance(op.m, op.n, op.r), AlgorithmId.STIRLING)
    if op.fmt == "frac":
        return stdout == "%d/%d\n" % (want.numerator, want.denominator)
    if op.fmt == "dec":
        return stdout == _decimal(want, DEC_DIGITS) + "\n"
    doc = json.loads(stdout)
    return doc == {"m": op.m, "n": op.n, "r": op.r, "algorithm": "direct",
                   "numerator": str(want.numerator),
                   "denominator": str(want.denominator)}


def _count_ok(op: Op, stdout: str) -> bool:
    return stdout == "%d\n" % DirectContext(op.m, op.r).count(op.n)


def column_counts(m: int, r: int, n_top: int) -> list[int]:
    """N(m, k, r) for k = 0..n_top: valid assignments of k birthdays.

    N(m, k, r) = k! [x^k] (sum_{j<=r} x^j / j!)^m, expanded with J. C. P.
    Miller's power-of-series recurrence (Knuth, TAOCP Vol. 2, 4.7):
    k N_k = sum_{j=1..min(r,k)} ((m+1) j - k) C(k, j) N_{k-j}, N_0 = 1.
    It shares no code with the program's solvers and costs O(n r).
    """
    counts = [1]
    for k in range(1, n_top + 1):
        total = sum(((m + 1) * j - k) * math.comb(k, j) * counts[k - j]
                    for j in range(1, min(r, k) + 1))
        counts.append(total // k)
    return counts


def _decimal(value: Fraction, digits: int) -> str:
    """Round-half-even decimal of a probability in [0, 1]."""
    q, rem = divmod(value.numerator * 10 ** digits, value.denominator)
    if 2 * rem > value.denominator or (2 * rem == value.denominator and q % 2):
        q += 1
    text = str(q).rjust(digits + 1, "0")
    return "%s.%s" % (text[:-digits], text[-digits:])
