"""Exact solvers for the bottleneck birthday problem.

Given m days, n people, and a per-day cap r, compute the exact probability
that no day collects more than r birthdays, count the valid configurations,
and find the largest n keeping that probability at or above a threshold.
Each export loads its module on first access (PEP 562), so `import bbp.cli`
loads only what the command line needs.
"""

import importlib

_MODULE_OF = {name: module for module, names in {
    "oracles": "prob_bruteforce",
    "search": "SearchRequest SearchResult find_nmax",
    "solvers": "AlgorithmId InstanceTooLargeError Mode ProblemInstance count_exact"
               " count_valid_stirling prob_exact",
    "stirling": "restricted_stirling2 stirling2",
    "tabulator": "TableResult TableSpec generate_table render",
    "xcheck": "XCheckReport cross_check",
}.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("." + _MODULE_OF[name], __name__)
    value = globals()[name] = getattr(module, name)
    return value
