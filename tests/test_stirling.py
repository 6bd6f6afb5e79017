from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bbp.solvers import CountingContext, DirectContext, StirlingContext
from bbp.stirling import RestrictedStirling, restricted_stirling2, stirling2
from oracles import partition_count, set_partitions


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
