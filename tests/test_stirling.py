import io
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bbp.cli import run
from bbp.solvers import CountingContext, DirectContext, StirlingContext
from bbp.stirling import RestrictedStirling, restricted_stirling2, stirling2
from oracles import partition_count, set_partitions


def invoke_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_classic_known_values():
    assert stirling2(4, 2) == 7
    assert stirling2(0, 0) == 1
    assert stirling2(5, 3) == 25
    assert stirling2(1, 0) == 0
    assert stirling2(0, 1) == 0
    assert stirling2(6, 1) == 1
    assert stirling2(6, 6) == 1
    assert stirling2(3, 5) == 0


def test_classic_against_partition_enumeration():
    # {5, 3} frozen from brute-force enumeration of set partitions.
    assert partition_count(5, 3) == 25
    for n in range(0, 8):
        for k in range(0, n + 2):
            assert stirling2(n, k) == partition_count(n, k)


def test_classic_against_partition_enumeration_to_n9():
    for n in (8, 9):
        for k in range(-1, n + 2):
            assert stirling2(n, k) == partition_count(n, k), (n, k)


@settings(deadline=None)
@given(n=st.integers(0, 40), data=st.data())
def test_classic_sum_equals_restricted_fill_at_r_n(n, data):
    k = data.draw(st.integers(0, n), label="k")
    assert stirling2(n, k) == restricted_stirling2(n, k, n)


def test_restricted_known_values():
    assert restricted_stirling2(4, 2, 3) == 7
    assert restricted_stirling2(5, 2, 3) == 10
    assert restricted_stirling2(5, 3, 3) == 25
    assert restricted_stirling2(3, 1, 2) == 0  # n > k*r
    assert restricted_stirling2(0, 0, 1) == 1
    assert restricted_stirling2(4, 0, 2) == 0
    assert restricted_stirling2(0, 2, 2) == 0


def test_restricted_equals_classic_for_large_r():
    for n in range(0, 13):
        for k in range(0, n + 1):
            for r in (n, n + 1, n + 5):
                if r < 1:
                    continue
                assert restricted_stirling2(n, k, r) == stirling2(n, k)


def test_diagonal_is_one():
    for r in range(1, 5):
        for n in range(1, 15):
            assert restricted_stirling2(n, n, r) == 1


def test_restricted_against_partition_enumeration():
    # One enumeration pass per n, tallied by (blocks, max block size).
    for n in range(0, 11):
        tally = Counter()
        for blocks in set_partitions(list(range(n))):
            key = (len(blocks), max((len(b) for b in blocks), default=0))
            tally[key] += 1
        for k in range(0, n + 1):
            for r in range(1, 5):
                expected = sum(
                    c for (kk, ms), c in tally.items() if kk == k and ms <= r
                )
                assert restricted_stirling2(n, k, r) == expected, (n, k, r)


def test_monotone_in_r():
    for n in range(0, 13):
        for k in range(0, n + 1):
            for r in range(1, n + 2):
                assert restricted_stirling2(n, k, r) <= restricted_stirling2(
                    n, k, r + 1
                )


# Every windowed fill, built with keep_all on or off, and a read of layer n
# that covers sub-m entries (no route keeps a history behind its window).
# A window DirectContext holds mm = m alone, so its read is the top row.
WINDOWED = {
    "RestrictedStirling": (
        lambda keep_all: RestrictedStirling(3, k_cap=20, keep_all=keep_all),
        lambda ctx, n: ctx.row(n)),
    "CountingContext": (
        lambda keep_all: CountingContext(20, 3, keep_all=keep_all),
        lambda ctx, n: [ctx.count(n, mm) for mm in range(1, 21)]),
    "DirectContext": (
        lambda keep_all: DirectContext(20, 3, keep_all=keep_all),
        lambda ctx, n: [ctx.count(n)]),
    "StirlingContext": (
        lambda keep_all: StirlingContext(20, 3, keep_all=keep_all),
        lambda ctx, n: [ctx.count(n, mm) for mm in range(1, 21)]),
}


@pytest.mark.parametrize("name", sorted(WINDOWED))
def test_window_mode_matches_keep_all(name):
    make, read = WINDOWED[name]
    full, rolling = make(True), make(False)
    full.extend(40)
    rolling.extend(40)
    assert any(read(full, 40))
    # r = 3 looks back 4 layers, so the window holds n = 37..40.
    for n in (37, 40):
        assert read(rolling, n) == read(full, n)
    for n in (36, 5):
        with pytest.raises(ValueError):
            read(rolling, n)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        restricted_stirling2(-1, 0, 2)
    with pytest.raises(ValueError):
        RestrictedStirling(0, k_cap=1)
    with pytest.raises(ValueError):
        stirling2(-2, 1)


def stirling_closed_form(n, k, r):
    """{n, k}_{<=r} where a closed form gives it, else None."""
    if n > k * r:
        return 0
    if n == k * r:
        return math.factorial(n) // (math.factorial(r) ** k * math.factorial(k))
    if k == n - 1 and n >= 2:
        return math.comb(n, 2) if r >= 2 else 0
    if k == 1:
        return int(n <= r)
    return None


def test_restricted_matches_the_kept_table():
    # restricted_stirling2 answers r >= n - k + 1 with the classic number
    # and fills a table elsewhere; both agree with one kept table.
    for r in range(1, 7):
        table = RestrictedStirling(r, k_cap=40, keep_all=True)
        for n in range(40):
            for k in range(n + 2):
                assert restricted_stirling2(n, k, r) == table.value(n, k), (n, k, r)


@pytest.mark.parametrize("r", range(1, 7))
def test_restricted_closed_forms_through_the_table(r):
    # One kept table, k_cap = 24: past k = n its full-width rows read zeros.
    table = RestrictedStirling(r, k_cap=24, keep_all=True)
    checked = 0
    for n in range(1, 24 * r + 3):
        for k in range(1, 25):
            want = stirling_closed_form(n, k, r)
            if want is not None:
                assert table.value(n, k) == restricted_stirling2(n, k, r) == want, (n, k)
                checked += 1
    assert checked > 24 * r


@pytest.mark.parametrize("n, k, r", [
    (1500, 500, 3), (1500, 150, 10), (1500, 30, 50), (1500, 3, 500),  # n = k r
    (1000, 999, 3), (600, 599, 2), (600, 599, 1),  # k = n - 1
    (1500, 1, 1500), (1500, 1, 1499), (1501, 500, 3),  # k = 1, n > k r
])
def test_restricted_closed_forms_at_scale(n, k, r):
    want = stirling_closed_form(n, k, r)
    assert restricted_stirling2(n, k, r) == want
    code, out, err = invoke_cli(["stirling", "-n", str(n), "-k", str(k), "-r", str(r)])
    assert (code, out, err) == (0, "%d\n" % want, "")
    if k * (k * r) <= 50_000:  # every row kept: k_cap + 1 values for each n
        assert RestrictedStirling(r, k_cap=k + 2, keep_all=True).value(n, k) == want
