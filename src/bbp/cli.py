"""Command-line front end.  Exact, machine-readable output.

Exit codes: 0 success, 1 usage error, 2 computation refusal (oracle guard,
benchmark timeout, a recurrence that lost exactness).  Diagnostics go to
stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact_arith import big_int_strings, decimal_string, parse_rational
from .search import SearchRequest, find_nmax
from .solvers import (
    AlgorithmId,
    FloatDirectContext,
    InstanceTooLargeError,
    Mode,
    ProblemInstance,
    count_bruteforce,
    count_valid,
    count_valid_stirling,
    prob_exact,
)
from .stirling import NegativeCountError, restricted_stirling2, stirling2
from .tabulator import (
    TableSpec,
    benchmark,
    cross_check,
    generate_table,
    render,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_int_list(text: str) -> list[int]:
    """Comma lists and a..b ranges: "10,25,50" or "1..10"."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo_s, hi_s = part.split("..")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError("empty range %r" % part)
            values.extend(range(lo, hi + 1))
        elif part:
            values.append(int(part))
    if not values:
        raise ValueError("empty list %r" % text)
    return values


def _algo(name: str) -> AlgorithmId:
    try:
        return AlgorithmId(name)
    except ValueError:
        raise UsageError("unknown algorithm %r" % name) from None


def build_parser() -> _Parser:
    parser = _Parser(prog="bbp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_flags(p):
        p.add_argument("--days", "-m", type=int, required=True)
        p.add_argument("--people", "-n", type=int, required=True)
        p.add_argument("--max-per-day", "-r", type=int, required=True)

    p = sub.add_parser("prob", help="exact probability that no day exceeds the cap")
    instance_flags(p)
    p.add_argument("--algo", default="direct",
                   choices=[a.value for a in AlgorithmId])
    p.add_argument("--mode", default="exact", choices=["exact", "float"])
    p.add_argument("--precision", type=int, default=None,
                   help="mantissa bits for float mode (default: doubles)")
    p.add_argument("--format", default="frac", choices=["frac", "dec", "json"])
    p.add_argument("--digits", type=int, default=12)

    p = sub.add_parser("count", help="number of valid configurations")
    instance_flags(p)
    p.add_argument("--algo", default="stirling",
                   choices=["counting", "stirling", "brute"])
    p.add_argument("--format", default="int", choices=["int", "json"])

    p = sub.add_parser("nmax", help="largest n keeping the probability >= gamma")
    p.add_argument("--days", "-m", type=int, required=True)
    p.add_argument("--max-per-day", "-r", type=int, required=True)
    p.add_argument("--gamma", default="1/2")
    p.add_argument("--mode", default="exact", choices=["exact", "float"])
    p.add_argument("--format", default="plain", choices=["plain", "json"])

    p = sub.add_parser("table", help="n_max grid over days and caps")
    p.add_argument("--days", default="10,25,50,100,200,365,500,1000")
    p.add_argument("--max-per-day", default="1..10")
    p.add_argument("--gamma", default="1/2")
    p.add_argument("--format", default="markdown",
                   choices=["csv", "markdown", "json"])
    p.add_argument("--float-above", type=int, default=None, metavar="N",
                   help="search columns with m > N in float mode first, then"
                        " walk exactly to the crossing (default: exact in"
                        " every column)")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("stirling", help="Stirling numbers of the second kind")
    p.add_argument("--objects", "-n", type=int, required=True)
    p.add_argument("--blocks", "-k", type=int, required=True)
    p.add_argument("--max-size", "-r", type=int, default=None,
                   help="restrict block sizes; omit for the classic number")

    p = sub.add_parser("xcheck", help="cross-validate all algorithms on a grid")
    p.add_argument("--max-days", type=int, required=True)
    p.add_argument("--max-people", type=int, required=True)
    p.add_argument("--max-per-day", type=int, required=True)

    p = sub.add_parser("bench", help="time the solvers against each other")
    p.add_argument("--instance", action="append", required=True,
                   metavar="M,N,R", help="repeatable: days,people,cap")
    p.add_argument("--algos", default=",".join(a.value for a in AlgorithmId))
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--timeout", type=float, default=300.0)

    return parser


def _emit_prob(args, out) -> None:
    inst = ProblemInstance(args.days, args.people, args.max_per_day)
    algorithm = _algo(args.algo)
    if args.mode == "float":
        if algorithm is not AlgorithmId.DIRECT:
            raise UsageError("float mode is only available with --algo direct")
        if inst.r >= inst.n:
            approx = 1.0
        elif inst.n > inst.m * inst.r:
            approx = 0.0
        else:
            approx = FloatDirectContext(inst.m, inst.r, args.precision).prob(inst.n)
        if args.format == "json":
            out.write(json.dumps({
                "m": inst.m, "n": inst.n, "r": inst.r,
                "algorithm": algorithm.value, "approx": approx,
            }, separators=(",", ":")) + "\n")
        else:
            out.write(repr(approx) + "\n")
        return

    p = prob_exact(inst, algorithm)
    if args.format == "frac":
        out.write("%d/%d\n" % (p.numerator, p.denominator))
    elif args.format == "dec":
        out.write(decimal_string(p, args.digits) + "\n")
    else:
        out.write(json.dumps({
            "m": inst.m, "n": inst.n, "r": inst.r,
            "algorithm": algorithm.value,
            "numerator": str(p.numerator),
            "denominator": str(p.denominator),
        }, separators=(",", ":")) + "\n")


def _emit_count(args, out) -> None:
    inst = ProblemInstance(args.days, args.people, args.max_per_day)
    if args.algo == "counting":
        n_valid = count_valid(inst)
    elif args.algo == "brute":
        n_valid = count_bruteforce(inst)
    else:
        n_valid = count_valid_stirling(inst)
    if args.format == "json":
        out.write(json.dumps({
            "m": inst.m, "n": inst.n, "r": inst.r,
            "algorithm": args.algo, "count": str(n_valid),
        }, separators=(",", ":")) + "\n")
    else:
        out.write(str(n_valid) + "\n")


def _emit_nmax(args, out) -> None:
    gamma = parse_rational(args.gamma)
    req = SearchRequest(
        m=args.days, r=args.max_per_day, gamma=gamma,
        mode=Mode.FLOAT if args.mode == "float" else Mode.EXACT,
    )
    result = find_nmax(req)
    if args.format == "json":
        out.write(json.dumps({
            "m": args.days, "r": args.max_per_day,
            "gamma": "%d/%d" % (gamma.numerator, gamma.denominator),
            "n_max": result.n_max,
            "p_at_nmax": "%d/%d" % (
                result.p_at_nmax.numerator, result.p_at_nmax.denominator),
            "p_at_nmax_plus_1": "%d/%d" % (
                result.p_at_nmax_plus_1.numerator,
                result.p_at_nmax_plus_1.denominator),
        }, separators=(",", ":")) + "\n")
    else:
        out.write("%d\n" % result.n_max)


def _emit_table(args, out) -> None:
    spec = TableSpec(
        m_values=_parse_int_list(args.days),
        r_values=_parse_int_list(args.max_per_day),
        gamma=parse_rational(args.gamma),
        output_format=args.format,
        float_above=args.float_above,
        jobs=max(1, args.jobs),
    )
    result = generate_table(spec)
    out.write(render(result))


def _emit_stirling(args, out) -> None:
    if args.max_size is None:
        out.write(str(stirling2(args.objects, args.blocks)) + "\n")
    else:
        out.write(str(restricted_stirling2(args.objects, args.blocks,
                                           args.max_size)) + "\n")


def _emit_xcheck(args, out) -> None:
    report = cross_check(args.max_days, args.max_people, args.max_per_day)
    out.write("instances=%d oracle=%d divergences=%d\n" % (
        report.instances_checked, report.oracle_checked, len(report.divergences)))
    for div in report.divergences:
        inst = div.instance
        detail = " ".join("%s=%s" % kv for kv in sorted(div.values.items()))
        out.write("DIVERGENCE m=%d n=%d r=%d %s\n" % (inst.m, inst.n, inst.r, detail))


def _emit_bench(args, out) -> int:
    instances = []
    for text in args.instance:
        m, n, r = (int(x) for x in text.split(","))
        instances.append(ProblemInstance(m, n, r))
    algorithms = [_algo(name) for name in args.algos.split(",") if name]
    report = benchmark(instances, algorithms, repetitions=args.reps,
                       timeout=args.timeout)
    out.write("# %s, median of %d\n" % (report.environment, report.repetitions))
    out.write("# %s\n" % report.note)
    any_timeout = False
    for row in report.rows:
        inst = row.instance
        label = row.algorithm.value
        if row.algorithm is AlgorithmId.DIRECT:
            label += "-" + row.mode.value
        if row.timed_out:
            any_timeout = True
            out.write("m=%d n=%d r=%d %s TIMEOUT\n" % (inst.m, inst.n, inst.r, label))
        else:
            out.write("m=%d n=%d r=%d %s %.6f\n" % (
                inst.m, inst.n, inst.r, label, row.seconds))
    return 2 if any_timeout else 0


def run(argv: list[str] | None = None,
        out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        with big_int_strings():
            return _dispatch(parser, argv, out)
    except (UsageError, ValueError) as exc:
        err.write("error: %s\n" % exc)
        return 1
    except (InstanceTooLargeError, NegativeCountError) as exc:
        err.write("refused: %s\n" % exc)
        return 2


def _dispatch(parser, argv, out) -> int:
    args = parser.parse_args(argv)
    if args.command == "prob":
        _emit_prob(args, out)
    elif args.command == "count":
        _emit_count(args, out)
    elif args.command == "nmax":
        _emit_nmax(args, out)
    elif args.command == "table":
        _emit_table(args, out)
    elif args.command == "stirling":
        _emit_stirling(args, out)
    elif args.command == "xcheck":
        _emit_xcheck(args, out)
    elif args.command == "bench":
        return _emit_bench(args, out)
    return 0


def main() -> None:
    sys.exit(run())
