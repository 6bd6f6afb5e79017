import io
import json
from fractions import Fraction

import bbp.solvers
from bbp.cli import run
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


def test_prob_float_mode():
    code, out, _ = invoke(["prob", "-m", "365", "-n", "23", "-r", "1",
                           "--mode", "float"])
    assert code == 0
    _, exact_out, _ = invoke(["prob", "-m", "365", "-n", "23", "-r", "1"])
    num, den = (int(x) for x in exact_out.strip().split("/"))
    assert abs(float(out) - num / den) < 1e-9
    # Shortcuts: no fill when n > m*r (pigeonhole) or r >= n (cap never binds).
    for argv, want in [(["-m", "5", "-n", "400", "-r", "2"], "0.0\n"),
                       (["-m", "50", "-n", "2", "-r", "3"], "1.0\n")]:
        assert invoke(["prob"] + argv + ["--mode", "float"]) == (0, want, "")


def test_count_subcommand():
    code, out, _ = invoke(["count", "-m", "3", "-n", "2", "-r", "1"])
    assert (code, out) == (0, "6\n")
    for algo in ["counting", "stirling", "brute"]:
        code, out, _ = invoke(["count", "-m", "2", "-n", "3", "-r", "2",
                               "--algo", algo])
        assert (code, out) == (0, "6\n")


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


def test_xcheck_subcommand():
    code, out, _ = invoke(["xcheck", "--max-days", "3", "--max-people", "4",
                           "--max-per-day", "2"])
    assert code == 0
    assert out.startswith("instances=")
    assert "divergences=0" in out


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
        ["frobnicate"],
    ]:
        code, out, err = invoke(argv)
        assert code == 1, argv
        assert out == ""
        assert err.strip()


def test_oracle_guard_exit_2():
    code, out, err = invoke(["prob", "-m", "365", "-n", "23", "-r", "1",
                             "--algo", "brute"])
    assert code == 2
    assert out == ""
    assert err.startswith("refused:")


def test_broken_fill_exit_2(monkeypatch):
    def broken(self, n):
        raise NegativeCountError("planted at n=%d" % n)

    monkeypatch.setattr(bbp.solvers.ColumnContext, "extend", broken)
    code, out, err = invoke(["nmax", "-m", "10", "-r", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("refused:") and "planted" in err


def test_bench_subcommand():
    code, out, _ = invoke(["bench", "--instance", "6,8,2",
                           "--algos", "stirling,direct", "--reps", "1"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(lines) == 3
    assert all(l.startswith("m=6 n=8 r=2 ") for l in lines)
