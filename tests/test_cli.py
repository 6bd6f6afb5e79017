import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import bbp.cli
import bbp.solvers
from bbp.cli import run
from bbp.solvers import DEFAULT_ORACLE_LIMIT, bounded_composition_count
from bbp.stirling import NegativeCountError


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_prob_frac_boundary():
    code, out, err = invoke(["prob", "--days", "365", "--people", "22",
                             "--max-per-day", "1", "--format", "frac"])
    assert code == 0 and err == ""
    num, den = (int(x) for x in out.strip().split("/"))
    assert Fraction(num, den) >= Fraction(1, 2)
    code, out, _ = invoke(["prob", "--days", "365", "--people", "23",
                           "--max-per-day", "1", "--format", "frac"])
    assert code == 0
    num, den = (int(x) for x in out.strip().split("/"))
    assert Fraction(num, den) < Fraction(1, 2)


def test_prob_base_case():
    code, out, err = invoke(["prob", "--days", "1", "--people", "0",
                             "--max-per-day", "1"])
    assert (code, out, err) == (0, "1/1\n", "")


def test_prob_dec_and_json():
    code, out, _ = invoke(["prob", "-m", "3", "-n", "2", "-r", "1",
                           "--format", "dec", "--digits", "6"])
    assert (code, out) == (0, "0.666667\n")
    code, out, _ = invoke(["prob", "-m", "3", "-n", "2", "-r", "1",
                           "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"m": 3, "n": 2, "r": 1, "algorithm": "direct",
                               "numerator": "2", "denominator": "3"}


def test_prob_all_algorithms_agree():
    outputs = set()
    for algo in ["day", "counting", "stirling", "direct", "column", "brute"]:
        code, out, _ = invoke(["prob", "-m", "4", "-n", "5", "-r", "2",
                               "--algo", algo])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_prob_huge_m_on_the_direct_default():
    # The direct fill holds only the mm that T(10**8, 50) depends on.
    argv = ["prob", "-m", "100000000", "-n", "50", "-r", "2"]
    code, out, err = invoke(argv)
    assert (code, err) == (0, "")
    assert out == invoke(argv + ["--algo", "column"])[1]


def test_prob_float_format():
    # The exact value rounded once to the nearest double, whatever the route.
    for instance in (["-m", "10", "-n", "5", "-r", "2"],
                     ["-m", "4", "-n", "7", "-r", "3"]):
        for algo in ["day", "counting", "stirling", "direct", "column", "brute"]:
            argv = ["prob"] + instance + ["--algo", algo]
            _, frac, _ = invoke(argv)
            num, den = (int(x) for x in frac.strip().split("/"))
            assert invoke(argv + ["--format", "float"]) == (
                0, repr(num / den) + "\n", ""), argv
    code, out, _ = invoke(["prob", "-m", "365", "-n", "23", "-r", "1",
                           "--algo", "column", "--format", "float"])
    assert (code, out) == (0, "0.4927027656760146\n")
    # No fill when n > m*r (pigeonhole) or r >= n (cap never binds).
    for argv, want in [(["-m", "5", "-n", "400", "-r", "2"], "0.0\n"),
                       (["-m", "50", "-n", "2", "-r", "3"], "1.0\n")]:
        assert invoke(["prob"] + argv + ["--format", "float"]) == (0, want, "")


def test_count_subcommand():
    code, out, _ = invoke(["count", "-m", "3", "-n", "2", "-r", "1"])
    assert (code, out) == (0, "6\n")
    for algo in ["day", "counting", "stirling", "direct", "column", "brute"]:
        code, out, _ = invoke(["count", "-m", "2", "-n", "3", "-r", "2",
                               "--algo", algo])
        assert (code, out) == (0, "6\n")
        # n = 0 has the one empty assignment; n > m*r has none (pigeonhole).
        for n, want in [("0", "1\n"), ("5", "0\n"), ("400", "0\n")]:
            argv = ["count", "-m", "2", "-n", n, "-r", "2", "--algo", algo]
            assert invoke(argv) == (0, want, ""), argv
    # Past the oracle's guard every fill route prints the same count, and
    # the JSON names the route that ran.
    counts = set()
    for algo in ["day", "counting", "stirling", "direct", "column"]:
        code, out, _ = invoke(["count", "-m", "50", "-n", "120", "-r", "3",
                               "--algo", algo, "--format", "json"])
        assert code == 0 and json.loads(out)["algorithm"] == algo
        counts.add(json.loads(out)["count"])
    assert len(counts) == 1


def test_nmax_subcommand():
    code, out, _ = invoke(["nmax", "--days", "10", "--max-per-day", "3",
                           "--gamma", "1/2"])
    assert (code, out) == (0, "15\n")
    code, out, _ = invoke(["nmax", "-m", "10", "-r", "3", "--format", "json"])
    payload = json.loads(out)
    assert payload["n_max"] == 15
    assert Fraction(payload["p_at_nmax"]) >= Fraction(1, 2)
    assert Fraction(payload["p_at_nmax_plus_1"]) < Fraction(1, 2)


def test_stirling_subcommand():
    code, out, _ = invoke(["stirling", "--objects", "4", "--blocks", "2",
                           "--max-size", "3"])
    assert (code, out) == (0, "7\n")
    code, out, _ = invoke(["stirling", "-n", "4", "-k", "2"])
    assert (code, out) == (0, "7\n")
    code, out, _ = invoke(["stirling", "-n", "5", "-k", "2", "-r", "3"])
    assert (code, out) == (0, "10\n")


def test_table_subcommand_csv():
    code, out, _ = invoke(["table", "--days", "3,10", "--max-per-day", "1..2",
                           "--format", "csv"])
    assert code == 0
    assert out == "r\\m,3,10\n1,2,4\n2,4,9\n"


# Run in a fresh interpreter: a test in this process may already have loaded
# any of the modules checked for.
IMPORT_PATH_CHECK = """
import io, sys
import bbp.cli
loaded = [name for name in ("dataclasses", "multiprocessing", "concurrent.futures",
                            "platform", "statistics", "bbp.oracles", "bbp.xcheck")
          if name in sys.modules]
assert not loaded, loaded
outs = []
for jobs in ("2", "1"):
    out = io.StringIO()
    code = bbp.cli.run(["table", "--days", "10,25", "--max-per-day", "1..3",
                        "--jobs", jobs], out=out)
    assert code == 0, code
    outs.append(out.getvalue())
assert outs[0] == outs[1], outs
print(outs[0], end="")
"""


def test_import_path_leaves_the_pool_for_first_use():
    src = os.path.dirname(os.path.dirname(bbp.solvers.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PATH_CHECK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("| r\\m | 10 | 25 |\n|---|---|---|\n| 1 | 4 | 6 |\n"
                           "| 2 | 9 | 15 |\n| 3 | 15 | 27 |\n")


def test_xcheck_subcommand():
    code, out, _ = invoke(["xcheck", "--max-days", "3", "--max-people", "4",
                           "--max-per-day", "2"])
    assert code == 0
    assert out.startswith("instances=")
    assert "divergences=0" in out


def test_xcheck_reaches_the_oracle_past_a_thousand_days():
    code, out, err = invoke(["xcheck", "--max-days", "1200", "--max-people", "0",
                             "--max-per-day", "1"])
    assert (code, out, err) == (0, "instances=1200 oracle=1200 divergences=0\n", "")


def test_xcheck_refuses_empty_bounds():
    # Each bound that would leave nothing to check is a usage error, not a pass.
    for days, people, cap in [("0", "4", "2"), ("-2", "4", "2"), ("3", "-1", "2"),
                              ("3", "2", "0"), ("3", "2", "-1")]:
        code, out, err = invoke(["xcheck", "--max-days", days, "--max-people", people,
                                 "--max-per-day", cap])
        assert (code, out) == (1, ""), (days, people, cap)
        assert err.startswith("error: xcheck requires"), err


def test_module_entry_point():
    src = os.path.dirname(os.path.dirname(bbp.solvers.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "bbp.cli", "nmax", "-m", "365", "-r", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "22\n", "")


def test_byte_identical_reruns():
    argv_sets = [
        ["prob", "-m", "50", "-n", "10", "-r", "2"],
        ["nmax", "-m", "25", "-r", "2"],
        ["table", "--days", "3,10,25", "--max-per-day", "1..3",
         "--format", "csv", "--jobs", "2"],
    ]
    for argv in argv_sets:
        first = invoke(argv)
        second = invoke(argv)
        assert first == second
        assert first[0] == 0


def test_usage_errors_exit_1():
    for argv in [
        ["prob", "-m", "3", "-n", "2"],                      # missing flag
        ["prob", "-m", "3", "-n", "2", "-r", "1", "--algo", "magic"],
        ["nmax", "-m", "10", "-r", "1", "--gamma", "0.5"],    # float threshold
        ["nmax", "-m", "10", "-r", "1", "--gamma", "2"],      # gamma > 1
        ["prob", "-m", "0", "-n", "2", "-r", "1"],            # bad instance
        ["nmax", "-m", "10", "-r", "1", "--algo", "stirling"],  # no search choice
        ["table", "--algo", "day"],
        ["prob", "-m", "10", "-n", "5", "-r", "2", "--mode", "float"],
        ["prob", "-m", "10", "-n", "5", "-r", "2", "--precision", "0"],
        ["nmax", "-m", "10", "-r", "1", "--mode", "float"],
        ["bench", "--instance", "5,7,2", "--algos", "column,magic"],  # retired
        ["frobnicate"],
    ]:
        code, out, err = invoke(argv)
        assert code == 1, argv
        assert out == ""
        assert err.strip()


@pytest.mark.parametrize("argv, message", [
    (["prob", "-m", "5", "-n", "3", "-r", "1", "--format", "dec", "--digits", "-1"],
     "digits must be >= 0"),
    (["table", "--days", "5..3"], "empty range '5..3'"),
    (["table", "--days", ","], "empty list ','"),
    (["table", "--days", "1..2..3"], "malformed list '1..2..3'"),
    (["table", "--days", "1..x"], "malformed list '1..x'"),
    # nmax and table refuse m < 1 and r < 1 in the words of prob and count.
    (["nmax", "-m", "0", "-r", "1"], "m must be >= 1"),
    (["nmax", "-m", "3", "-r", "0"], "r must be >= 1"),
    (["table", "--days", "0,10", "--max-per-day", "1,2", "--jobs", "2"],
     "m must be >= 1"),
    (["table", "--days", "10", "--max-per-day", "2,0", "--float-above", "1"],
     "r must be >= 1"),
], ids=["negative-digits", "empty-range", "empty-list", "range-of-three",
        "range-of-text", "nmax-m", "nmax-r", "table-m-jobs", "table-r-float"])
def test_value_refusals_exit_1(argv, message):
    assert invoke(argv) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["-h"],
    *([command, "--help"] for command in bbp.cli.build_parser().commands),
    ["prob", "-m", "3", "-n", "2"],                                # missing flag
    ["count", "-m", "x", "-n", "2", "-r", "1"],                    # bad int
    ["prob", "-m", "3", "-n", "2", "-r", "1", "--algo", "magic"],  # bad choice
    ["nmax", "-m", "10", "-r", "1", "--mode", "float"],            # unknown flag
    ["prob", "--days=5", "--peop", "3", "-r", "1"],                # = and abbreviation
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parse_once_keeps_every_message(monkeypatch, argv):
    # A known subcommand is parsed by its own parser alone; every exit code,
    # message and help text equals a parse through the full parser.
    def outcome():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out):  # help goes to sys.stdout
            try:
                code = run(argv, out=out, err=err)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    parser = bbp.cli.build_parser()
    if argv and argv[0] in parser.commands:
        monkeypatch.setattr(parser, "parse_args", None)  # one argparse pass
    once = outcome()
    monkeypatch.undo()
    monkeypatch.setattr(parser, "commands", {})
    assert outcome() == once


def test_digits_past_the_bound_exit_2():
    # decimal_string is quadratic in digits before Python 3.12; 3 * 10**8
    # digits never finished.  The bound is checked before any arithmetic.
    argv = ["prob", "-m", "5", "-n", "3", "-r", "1", "--format", "dec", "--digits"]
    start = time.process_time()
    assert invoke(argv + ["300000000"]) == (
        2, "", "refused: --digits is capped at 100000 (got 300000000)\n")
    assert time.process_time() - start < 0.1
    assert invoke(argv + ["100000"]) == (0, "0.48" + "0" * 99998 + "\n", "")


@pytest.mark.parametrize("argv", [
    ["-n", "100000", "-k", "50000", "-r", "3"],  # ran until killed
    ["-n", "100000", "-k", "50000"],
    # k = n - 2 has no shortcut (k = n - 1 is answered at once as C(n, 2)).
    ["-n", "1000000000000", "-k", "999999999998", "-r", "2"],
])
def test_stirling_past_the_work_bound_exit_2(argv):
    # The work is estimated before any arithmetic.
    start = time.process_time()
    code, out, err = invoke(["stirling"] + argv)
    assert time.process_time() - start < 0.1
    assert (code, out) == (2, "")
    assert err.startswith("refused: stirling %s needs about " % " ".join(argv))
    assert err.endswith(" past the bound of %d\n" % bbp.cli.MAX_STIRLING_WORK)


def test_stirling_work_bound_admits(monkeypatch):
    # These answer in about 1 s each; the stubs show the bound lets them
    # through without doing the arithmetic here.
    monkeypatch.setattr(bbp.cli, "restricted_stirling2", lambda n, k, r: 7)
    monkeypatch.setattr(bbp.cli, "stirling2", lambda n, k: 7)
    for argv in (["-n", "2000", "-k", "1000", "-r", "3"], ["-n", "5000", "-k", "2500"]):
        assert invoke(["stirling"] + argv) == (0, "7\n", ""), argv
    monkeypatch.undo()
    # The library answers these at once (k > n, n > k r, k = n, k = n - 1,
    # n = 0), so no size is refused.
    big = "1000000000000"
    for argv, want in [
        (["-n", big, "-k", "999999999999", "-r", "2"], str(10**12 * (10**12 - 1) // 2)),
        (["-n", big, "-k", big + "0"], "0"), (["-n", big, "-k", "5", "-r", "3"], "0"),
        (["-n", big, "-k", big], "1"), (["-n", big, "-k", big, "-r", "2"], "1"),
        (["-n", "0", "-k", "0"], "1"), (["-n", "0", "-k", "0", "-r", "1"], "1"),
        (["-n", big, "-k", "0"], "0"), (["-n", big, "-k", "1"], "1"),
    ]:
        assert invoke(["stirling"] + argv) == (0, want + "\n", ""), argv


def test_oracle_guard_exit_2():
    code, out, err = invoke(["prob", "-m", "365", "-n", "23", "-r", "1",
                             "--algo", "brute"])
    assert code == 2
    assert out == ""
    assert err.startswith("refused:")


def test_oracle_limit_refuses_past_200k_compositions():
    # (9, 14, 5) has 205,560 bounded compositions, just past the limit: it
    # is refused from the count alone, before any is enumerated.
    assert bounded_composition_count(9, 14, 5) == 205_560 > DEFAULT_ORACLE_LIMIT
    code, out, err = invoke(["prob", "-m", "9", "-n", "14", "-r", "5",
                             "--algo", "brute"])
    assert (code, out) == (2, "")
    assert err.startswith("refused:") and "200000" in err
    # At m = 10^4 the closed form's sum took 14 s; the floor C(m, 4) of the
    # compositions refuses first.
    for m, n, r in ((20000, 30000, 2), (10000, 10000, 2)):
        start = time.process_time()
        code, out, err = invoke(["prob", "-m", str(m), "-n", str(n), "-r", str(r),
                                 "--algo", "brute"])
        assert time.process_time() - start < 0.2, (m, n, r)
        assert (code, out) == (2, "")
        assert err == ("refused: brute force refused: more than 200000 bounded "
                       "compositions for m=%d n=%d r=%d\n" % (m, n, r))


@pytest.mark.parametrize("m, n, r", [
    # 201 compositions, within the count limit, but n is past 200,000: the
    # one math.comb(2000000, 999900) of its walk took 44 s.
    (2, 2000000, 1000100),
    # 36 compositions at n = 200,000: compositions*m*n^2 is past 10^12.
    (3, 200000, 66669),
])
def test_oracle_refuses_wide_multinomials_at_once(m, n, r):
    start = time.process_time()
    code, out, err = invoke(["prob", "-m", str(m), "-n", str(n), "-r", str(r),
                             "--algo", "brute"])
    assert time.process_time() - start < 0.2
    assert (code, out) == (2, "")
    assert err.startswith("refused:") and "compositions*m*n^2" in err


def test_broken_fill_exit_2(monkeypatch):
    def broken(self, n, below=None):
        raise NegativeCountError("planted at n=%d" % n)

    monkeypatch.setattr(bbp.solvers.ColumnContext, "extend", broken)
    code, out, err = invoke(["nmax", "-m", "10", "-r", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("refused:") and "planted" in err


def test_out_of_memory_exit_2(monkeypatch):
    def exhausted(self, n):
        raise MemoryError

    monkeypatch.setattr(bbp.solvers.DirectContext, "extend", exhausted)
    code, out, err = invoke(["prob", "-m", "10", "-n", "5", "-r", "2"])
    assert (code, out, err) == (2, "", "refused: out of memory\n")


def test_ctrl_c_exits_130_without_a_traceback(monkeypatch, capsys):
    def interrupted(n, k):
        raise KeyboardInterrupt

    monkeypatch.setattr(bbp.cli, "stirling2", interrupted)
    monkeypatch.setattr(sys, "argv", ["bbp", "stirling", "-n", "4", "-k", "2"])
    with pytest.raises(SystemExit) as exit_info:
        bbp.cli.main()
    assert exit_info.value.code == 130
    assert capsys.readouterr() == ("", "interrupted\n")
    # run() itself lets Ctrl-C through to its in-process callers.
    with pytest.raises(KeyboardInterrupt):
        invoke(["stirling", "-n", "4", "-k", "2"])


def test_cached_parser_keeps_no_state_between_runs():
    # The parser is built once per process; each call parses afresh.
    xcheck = ["xcheck", "--max-days", "3", "--max-people", "4", "--max-per-day", "2"]
    assert invoke(xcheck) == invoke(xcheck) == (
        0, "instances=30 oracle=30 divergences=0\n", "")
    prob = ["prob", "-m", "3", "-n", "2", "-r", "1", "--format", "json"]
    assert json.loads(invoke(prob + ["--algo", "column"])[1])["algorithm"] == "column"
    assert json.loads(invoke(prob)[1])["algorithm"] == "direct"
    good = [["count", "-m", "3", "-n", "2", "-r", "1", "--format", "json"],
            ["nmax", "-m", "10", "-r", "3"]]
    before = [invoke(argv) for argv in good]
    assert invoke(["count", "-m", "3", "-n", "2", "--algo", "magic"])[0] == 1
    assert [invoke(argv) for argv in good] == before
