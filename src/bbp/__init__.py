"""Exact solvers for the bottleneck birthday problem.

Given m days, n people, and a per-day cap r, compute the exact probability
that no day collects more than r birthdays, count the valid configurations,
and find the largest n keeping that probability at or above a threshold.
"""

from .exact_arith import binomial, ratio
from .search import SearchRequest, SearchResult, find_nmax
from .solvers import (
    AlgorithmId,
    InstanceTooLargeError,
    Mode,
    ProblemInstance,
    coeff_next,
    count_valid,
    count_valid_stirling,
    prob_bruteforce,
    prob_exact,
)
from .stirling import restricted_stirling2, stirling2
from .tabulator import (
    BenchReport,
    TableResult,
    TableSpec,
    XCheckReport,
    benchmark,
    cross_check,
    generate_table,
    render,
)

__all__ = [
    "AlgorithmId",
    "BenchReport",
    "InstanceTooLargeError",
    "Mode",
    "ProblemInstance",
    "SearchRequest",
    "SearchResult",
    "TableResult",
    "TableSpec",
    "XCheckReport",
    "benchmark",
    "binomial",
    "coeff_next",
    "count_valid",
    "count_valid_stirling",
    "cross_check",
    "find_nmax",
    "generate_table",
    "prob_bruteforce",
    "prob_exact",
    "ratio",
    "render",
    "restricted_stirling2",
    "stirling2",
]
