"""Cross-algorithm validation: every route on every instance of a grid.

`cross_check` fills each exact route, the oracles of `bbp.oracles` among
them, once per r over the whole grid, and compares every P(m, n, r) they
give, with the brute-force oracle's where its guard admits it.  It backs the
`xcheck` subcommand, which imports this module when it runs, so `import
bbp.cli` loads neither this module nor the oracles.
"""

from __future__ import annotations

from .oracles import CountingContext, DayContext, StirlingContext, prob_bruteforce
from .solvers import (AlgorithmId, ColumnContext, DirectContext,
                      InstanceTooLargeError, ProblemInstance, Record)


class Divergence(Record):
    def __init__(self, instance: ProblemInstance, values: dict[str, str]):
        self.instance = instance
        self.values = values  # algorithm name -> exact probability string


class XCheckReport(Record):
    def __init__(self, max_m: int, max_n: int, max_r: int):
        self.max_m = max_m
        self.max_n = max_n
        self.max_r = max_r
        self.instances_checked = 0
        self.oracle_checked = 0
        self.divergences: list[Divergence] = []


def cross_check(max_m: int, max_n: int, max_r: int) -> XCheckReport:
    """Run every exact algorithm (and the oracle where admissible) on every
    instance within bounds and record any disagreement verbatim."""
    if max_m < 1 or max_n < 0 or max_r < 1:
        raise ValueError("xcheck requires max_m >= 1, max_n >= 0 and max_r >= 1")
    report = XCheckReport(max_m=max_m, max_n=max_n, max_r=max_r)
    for r in range(1, max_r + 1):
        fills = {
            AlgorithmId.DAY_AT_A_TIME.value: DayContext(max_m, r),
            AlgorithmId.COUNTING.value: CountingContext(max_m, r, keep_all=True),
            AlgorithmId.STIRLING.value: StirlingContext(max_m, r, keep_all=True),
            AlgorithmId.DIRECT.value: DirectContext(max_m, r, keep_all=True),
        }
        for ctx in fills.values():
            ctx.extend(max_n)
        for m in range(1, max_m + 1):
            # The column context holds only its own m.
            contexts = {**fills, AlgorithmId.COLUMN.value: ColumnContext(m, r)}
            for n in range(0, max_n + 1):
                inst = ProblemInstance(m, n, r)
                values = {name: ctx.prob(n, m) for name, ctx in contexts.items()}
                try:
                    values[AlgorithmId.BRUTE_FORCE.value] = prob_bruteforce(inst)
                    report.oracle_checked += 1
                except InstanceTooLargeError:
                    pass  # beyond the oracle's limit: the exact routes only
                report.instances_checked += 1
                if len(set(values.values())) != 1:
                    report.divergences.append(
                        Divergence(
                            instance=inst,
                            values={k: str(v) for k, v in values.items()},
                        )
                    )
    return report
