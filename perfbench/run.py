"""Benchmark of the bbp command-line program, driven in process.

    python3 perfbench/run.py --workload nmax --seed 1 --seconds 30 --trace 0

A single client sends the workload's operations through `bbp.cli.run` as a
closed loop: each call starts when the previous one has returned.  One pass
sends every operation of one seeded list; each pass draws a fresh list
from the same distribution, and passes repeat until the next one would
overrun --seconds.  Every answer is checked afterwards.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics from the traced ones.
Before the last line, one JSON line records the run: inputs digest, pass
times, failures and environment.  The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit code 0 when every answer is right, 1 when one is wrong, 2 when the
program is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SPAWNS = 15  # fresh interpreters timed per run for setup_s
MAX_PASSES = 64  # operation lists generated before timing starts
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MiB"}


@dataclass
class Pass:
    """One closed-loop pass over an operation list."""

    ops: list = field(default_factory=list)
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    outputs: list[str | None] = field(default_factory=list)  # None: op failed
    errors: list[str] = field(default_factory=list)


def run_pass(ops) -> Pass:
    import bbp.cli  # looked up per call, so a Tracer's wrapper is used

    result = Pass(ops=ops)
    start = perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            code = bbp.cli.run(list(op.argv), out=out, err=err)
        except Exception as exc:  # an operation that raises counts as failed
            code, message = None, "%s raised %r" % (" ".join(op.argv), exc)
        else:
            message = "%s exited %s: %s" % (" ".join(op.argv), code,
                                             err.getvalue().strip())
        result.latencies.append(perf_counter() - t0)
        result.outputs.append(out.getvalue() if code == 0 else None)
        if code != 0:
            result.errors.append(message)
    result.wall_s = perf_counter() - start
    return result


def timed_passes(op_lists, seconds: float, tracer=None):
    """Passes over successive lists until the next would end after
    `seconds` or the lists run out; at least one.

    With a tracer, each round is an untraced pass then a traced one, and
    the per-layer metrics of every traced pass are returned too.
    """
    from tracing import layer_metrics

    plain, traced, layers = [], [], []
    start = perf_counter()
    for ops in op_lists:
        plain.append(run_pass(ops))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_pass(ops))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer.collect()))
        elapsed = perf_counter() - start
        if elapsed * (1 + 1 / len(plain)) > seconds:
            break
    return plain, traced, layers


def percentile(values: list[float], k: int) -> float:
    """The k-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[k - 1]


def end_to_end(passes: list[Pass]) -> tuple[dict, dict]:
    """End-to-end metrics, and the sample counts behind the latencies.

    wall_s is the median pass; p50 and p90 are taken over every call of
    every pass.
    """
    latencies = [t for p in passes for t in p.latencies]
    wall = statistics.median(p.wall_s for p in passes)
    p90 = percentile(latencies, 90)
    metrics = {
        "wall_s": wall,
        "ops_per_s": sum(op.cells for op in passes[0].ops) / wall,
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_p90_ms": 1e3 * p90,
    }
    samples = {"calls": len(latencies), "above_p90": sum(t > p90 for t in latencies)}
    return metrics, samples


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import bbp.cli."""
    code = "import sys; sys.path.insert(0, %r); import bbp.cli" % str(SRC)
    times = []
    for _ in range(SETUP_SPAWNS + 1):  # the first also writes bytecode caches
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times[1:])


def gate_passes(passes: list[Pass], seed: int) -> tuple[int, list[str]]:
    """Wrong cells over all passes, and a few descriptions of them.

    The slow nmax reference runs on a seeded sample of the first pass.
    """
    import gate

    sample = gate.nmax_sample(passes[0].ops, seed)
    verdicts = {}  # (op, output) -> wrong cells; repeated answers are checked once
    failed, notes = 0, []
    for j, p in enumerate(passes):
        notes.extend(p.errors)
        for i, (op, out) in enumerate(zip(p.ops, p.outputs)):
            if out is None:
                failed += op.cells
                continue
            if (op, out) not in verdicts:
                verdicts[op, out] = gate.check(op, out, rederive=j == 0 and i in sample)
                if verdicts[op, out]:
                    notes.append("wrong answer to %s: %.200s" % (" ".join(op.argv), out))
            failed += verdicts[op, out]
    return failed, notes[:10]


def environment() -> dict:
    git_commit = None
    if (ROOT / ".git").exists():
        try:
            git_commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "bbp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["table", "nmax", "point"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bbp" / "cli.py").is_file():
        print("perfbench: the program is missing (%s)" % (SRC / "bbp"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import PER_LAYER_UNITS, Tracer, median_metrics

    make = workloads.WORKLOADS[args.workload]
    op_lists = [make(args.seed, j) for j in range(MAX_PASSES)]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as span_dir:
            plain, traced, layers = timed_passes(op_lists, args.seconds, Tracer(span_dir))
        values = median_metrics(layers)
        values["trace_overhead_ratio"] = (statistics.median(p.wall_s for p in traced)
                                          / statistics.median(p.wall_s for p in plain))
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        passes = plain + traced
        record["traced_walls_s"] = [p.wall_s for p in traced]
    else:
        plain, _, _ = timed_passes(op_lists, args.seconds)
        values, record["latency_samples"] = end_to_end(plain)
        values["peak_rss_mb"] = peak_rss_mb()
        values["setup_s"] = setup_seconds()
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        passes = plain
    record["walls_s"] = [p.wall_s for p in plain]
    record["pass_argv_digests"] = [workloads.argv_digest(p.ops) for p in plain]

    failed, notes = gate_passes(passes, args.seed)
    attempted = sum(op.cells for p in passes for op in p.ops)
    record.update(fail_ratio=failed / attempted, failures=notes,
                  environment=environment())
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    for note in notes:
        print("perfbench: %s" % note, file=sys.stderr)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
