"""Tests of the benchmark itself: generators, correctness gate, tracing.

Run with `python -m pytest perfbench -q` from the repository root.
"""

import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bbp.cli  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def answer(argv):
    out = io.StringIO()
    assert bbp.cli.run(list(argv), out=out, err=io.StringIO()) == 0
    return out.getvalue()


def perturb(text, fmt):
    """The same probability answer with its last digit moved by one."""
    if fmt == "json":
        doc = json.loads(text)
        doc["numerator"] = str(int(doc["numerator"]) + 1)
        return json.dumps(doc) + "\n"
    last = int(text[-2])
    return text[:-2] + str((last + 1) % 10) + "\n"


def test_generators_are_deterministic_and_in_range():
    for name, make in workloads.WORKLOADS.items():
        assert make(7, 3) == make(7, 3), name
        assert workloads.argv_digest(make(7, 3)) == workloads.argv_digest(make(7, 3))
    assert workloads.table_ops(1, 0) == workloads.table_ops(2, 5)
    for name in ("nmax", "point"):
        make = workloads.WORKLOADS[name]
        digests = {workloads.argv_digest(make(seed, j)) for seed in (1, 2) for j in (0, 1)}
        assert len(digests) == 4, name
        assert len(make(1)) >= 100  # >= 10 latency samples above p90 in one pass
    for op in workloads.nmax_ops(3):
        assert 10 <= op.m <= 400 and 1 <= op.r <= 10
        assert op.gamma in workloads.NMAX_GAMMAS
    for op in workloads.point_ops(3):
        if op.kind == "prob":
            assert 10 <= op.m <= 10 ** 5 and 2 <= op.n <= 64 and 1 <= op.r < op.n
        else:
            assert 10 <= op.m <= 200 and 1 <= op.n <= min(400, op.m * op.r)


def test_column_reference_matches_direct_counts():
    from bbp.solvers import DirectContext

    for m, r in [(1, 1), (3, 2), (10, 3), (17, 5)]:
        ctx = DirectContext(m, r)
        assert gate.column_counts(m, r, 60) == [ctx.count(n) for n in range(61)]


def test_gate_flags_planted_wrong_answers():
    nmax = next(op for op in workloads.nmax_ops(1) if op.m < 100 and op.r > 1)
    good = answer(nmax.argv)
    assert gate.check(nmax, good) == 0
    doc = json.loads(good)
    doc["n_max"] += 1  # certificate cells left as they were
    planted = json.dumps(doc, separators=(",", ":")) + "\n"
    assert gate.check(nmax, planted, rederive=False) == 1
    assert gate.check(nmax, planted, rederive=True) == 1

    point = workloads.point_ops(1)
    count = next(op for op in point if op.kind == "count" and op.n > 5)
    good = answer(count.argv)
    assert gate.check(count, good) == 0
    assert gate.check(count, "%d\n" % (int(good) + 1)) == 1
    for fmt in ("frac", "dec", "json"):
        prob = next(op for op in point if op.kind == "prob" and op.fmt == fmt)
        good = answer(prob.argv)
        assert gate.check(prob, good) == 0, fmt
        assert gate.check(prob, perturb(good, fmt)) == 1, fmt

    table = workloads.table_ops(1)[0]
    good = "\n".join(["r\\m," + ",".join(map(str, workloads.TABLE_DAYS))] + [
        "%d,%s" % (r, ",".join(map(str, workloads.PUBLISHED_TABLE[r])))
        for r in workloads.TABLE_CAPS]) + "\n"
    assert gate.check(table, good) == 0
    assert gate.check(table, good.replace(",1820", ",1821")) == 1

    # A failed call and a wrong answer both count in the run's failures.
    passes = [run.Pass(ops=[nmax, count], outputs=[planted, None],
                       errors=["count exited 2"])]
    failed, notes = run.gate_passes(passes, seed=1)
    assert failed == 2 and len(notes) == 2


def test_tracing_keeps_stdout_identical(tmp_path):
    ops = [
        workloads.Op("table", ("table", "--days", "10,25,50", "--max-per-day", "1..3",
                               "--jobs", "2", "--format", "csv")),
        workloads.Op("table", ("table", "--days", "10,25", "--max-per-day", "1..2",
                               "--float-above", "10", "--format", "json")),
        workloads.Op("nmax", ("nmax", "-m", "200", "-r", "2", "--format", "json")),
        workloads.Op("prob", ("prob", "-m", "365", "-n", "22", "-r", "1", "--format", "dec")),
        workloads.Op("prob", ("prob", "-m", "1000", "-n", "30", "-r", "2")),
        workloads.Op("count", ("count", "-m", "20", "-n", "40", "-r", "3")),
    ]
    original = bbp.cli.run
    plain = run.run_pass(ops)
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        traced = run.run_pass(ops)
    finally:
        tracer.uninstall()
    assert bbp.cli.run is original
    assert None not in plain.outputs
    assert traced.outputs == plain.outputs

    spans = tracer.collect()
    assert {s[0].split(":")[0] for s in spans} - {str(os.getpid())}  # workers
    metrics = tracing.layer_metrics(spans)
    assert metrics["search.calls"] == 9 + 4 + 1
    assert metrics["search.probes_float"] > 0 and metrics["search.certify_s"] > 0
    assert metrics["search.fill_overshoot"] >= 1
    assert metrics["tabulator.critical_path_s"] > 0
    assert metrics["solvers.direct_cells"] > 0 and metrics["stirling.rows"] > 0
    assert metrics["exact_arith.decimal_string_s"] > 0
    assert set(metrics) | {"trace_overhead_ratio"} == set(tracing.PER_LAYER_UNITS)


def test_benchmark_json_matches_the_harness():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    effects = json.loads((Path(__file__).parent / "effects.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(effects["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert list(effects["per_layer"]) == list(tracing.PER_LAYER_UNITS)
    for pairs in effects["per_layer"].values():
        for workload, metric in pairs:
            assert workload in names and metric in run.END_TO_END_UNITS
