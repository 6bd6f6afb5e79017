"""Exact solvers for the bottleneck birthday problem.

Given m days, n people, and a per-day cap r, compute the exact probability
that no day collects more than r birthdays, count the valid configurations,
and find the largest n keeping that probability at or above a threshold.
"""

from .search import SearchRequest, SearchResult, find_nmax
from .solvers import (
    AlgorithmId,
    InstanceTooLargeError,
    Mode,
    ProblemInstance,
    count_exact,
    count_valid_stirling,
    prob_bruteforce,
    prob_exact,
)
from .stirling import restricted_stirling2, stirling2
from .tabulator import (
    TableResult,
    TableSpec,
    XCheckReport,
    cross_check,
    generate_table,
    render,
)

__all__ = [
    "AlgorithmId",
    "InstanceTooLargeError",
    "Mode",
    "ProblemInstance",
    "SearchRequest",
    "SearchResult",
    "TableResult",
    "TableSpec",
    "XCheckReport",
    "count_exact",
    "count_valid_stirling",
    "cross_check",
    "find_nmax",
    "generate_table",
    "prob_bruteforce",
    "prob_exact",
    "render",
    "restricted_stirling2",
    "stirling2",
]
