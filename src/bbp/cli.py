"""Command-line front end.  Exact, machine-readable output.

Exit codes: 0 success, 1 usage error, 2 computation refusal (oracle guard,
--digits past 100000, a recurrence that lost exactness, out of memory), 130
interrupted (Ctrl-C).
Diagnostics go to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .exact_arith import big_int_strings, decimal_string, parse_rational
from .search import SearchRequest, find_nmax
from .solvers import (
    AlgorithmId,
    InstanceTooLargeError,
    ProblemInstance,
    count_exact,
    count_valid_stirling,  # unused here; perfbench/tracing.py patches it in bbp.cli
    prob_exact,
)
from .stirling import NegativeCountError, restricted_stirling2, stirling2
from .tabulator import TableSpec, cross_check, generate_table, render

# The most digits `prob --format dec` prints: decimal_string is quadratic in
# them before Python 3.12 (0.2 s at 10^5 digits, 1.6 s at 3 * 10^5).
MAX_DIGITS = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_int_list(text: str | None) -> list[int] | None:
    """Comma lists and a..b ranges: "1,5,9" or "1..10"; None stays None."""
    if text is None:
        return None  # TableSpec supplies the paper's grid
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            lo, hi = map(int, part.split("..")) if ".." in part else (int(part),) * 2
        except ValueError:  # a bad int, or more than one ".."
            raise ValueError("malformed list %r" % text) from None
        if hi < lo:
            raise ValueError("empty range %r" % part)
        values.extend(range(lo, hi + 1))
    if not values:
        raise ValueError("empty list %r" % text)
    return values


@functools.cache  # built on the first run(), reused by every later one
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
    p.add_argument("--format", default="frac",
                   choices=["frac", "dec", "float", "json"],
                   help="float is the exact value rounded to the nearest double")
    p.add_argument("--digits", type=int, default=12)
    p.set_defaults(emit=_emit_prob)

    p = sub.add_parser("count", help="number of valid configurations")
    instance_flags(p)
    p.add_argument("--algo", default="stirling",
                   choices=[a.value for a in AlgorithmId])
    p.add_argument("--format", default="int", choices=["int", "json"])
    p.set_defaults(emit=_emit_count)

    p = sub.add_parser("nmax", help="largest n keeping the probability >= gamma")
    p.add_argument("--days", "-m", type=int, required=True)
    p.add_argument("--max-per-day", "-r", type=int, required=True)
    p.add_argument("--gamma", default="1/2")
    p.add_argument("--format", default="plain", choices=["plain", "json"])
    p.set_defaults(emit=_emit_nmax)

    p = sub.add_parser("table", help="n_max grid over days and caps")
    p.add_argument("--days", help="default: the paper's grid")
    p.add_argument("--max-per-day", help="default: the paper's grid")
    p.add_argument("--gamma", default="1/2")
    p.add_argument("--format", default="markdown",
                   choices=["csv", "markdown", "json"])
    p.add_argument("--float-above", type=int, default=None, metavar="N",
                   help="search columns with m > N in float mode first, then"
                        " check that guess exactly (default: exact in every"
                        " column)")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(emit=_emit_table)

    p = sub.add_parser("stirling", help="Stirling numbers of the second kind")
    p.add_argument("--objects", "-n", type=int, required=True)
    p.add_argument("--blocks", "-k", type=int, required=True)
    p.add_argument("--max-size", "-r", type=int, default=None,
                   help="restrict block sizes; omit for the classic number")
    p.set_defaults(emit=_emit_stirling)

    p = sub.add_parser("xcheck", help="cross-validate all algorithms on a grid")
    p.add_argument("--max-days", type=int, required=True)
    p.add_argument("--max-people", type=int, required=True)
    p.add_argument("--max-per-day", type=int, required=True)
    p.set_defaults(emit=_emit_xcheck)

    parser.commands = sub.choices  # name -> subparser, for run()
    return parser


def _frac(x) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _json_line(out, **fields) -> None:
    out.write(json.dumps(fields, separators=(",", ":")) + "\n")


def _emit_prob(args, out) -> None:
    if args.format == "dec" and args.digits > MAX_DIGITS:
        raise InstanceTooLargeError("--digits is capped at %d (got %d)"
                                    % (MAX_DIGITS, args.digits))
    inst = ProblemInstance(args.days, args.people, args.max_per_day)
    algorithm = AlgorithmId(args.algo)
    p = prob_exact(inst, algorithm)
    if args.format == "frac":
        out.write(_frac(p) + "\n")
    elif args.format == "dec":
        out.write(decimal_string(p, args.digits) + "\n")
    elif args.format == "float":
        out.write(repr(float(p)) + "\n")  # int / int rounds correctly
    else:
        _json_line(out, m=inst.m, n=inst.n, r=inst.r, algorithm=algorithm.value,
                   numerator=str(p.numerator), denominator=str(p.denominator))


def _emit_count(args, out) -> None:
    inst = ProblemInstance(args.days, args.people, args.max_per_day)
    algorithm = AlgorithmId(args.algo)
    n_valid = count_exact(inst, algorithm)
    if args.format == "json":
        _json_line(out, m=inst.m, n=inst.n, r=inst.r, algorithm=algorithm.value,
                   count=str(n_valid))
    else:
        out.write(str(n_valid) + "\n")


def _emit_nmax(args, out) -> None:
    gamma = parse_rational(args.gamma)
    result = find_nmax(SearchRequest(m=args.days, r=args.max_per_day, gamma=gamma),
                       certify=args.format == "json")
    if args.format == "json":
        _json_line(out, m=args.days, r=args.max_per_day, gamma=_frac(gamma),
                   n_max=result.n_max, p_at_nmax=_frac(result.p_at_nmax),
                   p_at_nmax_plus_1=_frac(result.p_at_nmax_plus_1))
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


def run(argv: list[str] | None = None,
        out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    # A known subcommand goes straight to its own parser: the full parser
    # would scan every argument only to hand them all to it.
    command = parser.commands.get(argv[0]) if argv else None
    try:
        with big_int_strings():
            args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
            args.emit(args, out)
            return 0
    except (UsageError, ValueError) as exc:
        err.write("error: %s\n" % exc)
        return 1
    except (InstanceTooLargeError, NegativeCountError) as exc:
        err.write("refused: %s\n" % exc)
        return 2
    except MemoryError:
        err.write("refused: out of memory\n")
        return 2


def main() -> None:
    try:
        sys.exit(run())
    except KeyboardInterrupt:  # not in run(): in-process callers must see it
        sys.stderr.write("interrupted\n")
        sys.exit(130)


if __name__ == "__main__":
    main()
