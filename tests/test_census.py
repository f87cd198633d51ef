import types
from fractions import Fraction

import pytest

from ulisperm import (
    ConstructionError,
    InputError,
    catalan,
    census_enumerative,
    census_rows_dp,
    ulis_count_all,
)
from ulisperm import census as census_mod
from ulisperm import ranks as ranks_mod
from ulisperm.census import DP_CAP, CensusRow

from oracles import (
    census_u_by_binomial_walk,
    census_u_by_dp,
    census_u_by_first_passage,
    ulis_count_by_search,
)

# Frozen small rows, derived once by classifying every rank sequence of each
# length by maximum multiplicity (and double-checked against the avoider
# side by the characterization suite).
SMALL_ROWS = {
    1: (1, 1, 0),
    2: (2, 1, 1),
    3: (5, 3, 2),
    4: (14, 8, 6),
    5: (42, 23, 19),
    6: (132, 71, 61),
    7: (429, 229, 200),
    8: (1430, 759, 671),
}


def test_enumerative_small_rows():
    for n, (total, u, v) in SMALL_ROWS.items():
        row = census_enumerative(n)
        assert (row.total, row.u, row.v) == (total, u, v)
        assert row.ratio == Fraction(u, total)


def test_ratio_is_exactly_half_at_two():
    assert census_enumerative(2).ratio == Fraction(1, 2)


def test_dp_equals_enumerative():
    dp_rows = {row.n: row for row in census_rows_dp(10)}
    for n in range(1, 11):
        assert dp_rows[n] == census_enumerative(n)


def test_dp_single_row():
    first = list(census_rows_dp(1))[-1]
    assert (first.n, first.total, first.u, first.v) == (1, 1, 1, 0)
    assert list(census_rows_dp(3))[-1] == census_enumerative(3)
    row = list(census_rows_dp(12))[-1]
    assert row.n == 12
    assert row.u + row.v == 208012


def test_dp_rows_sum_to_catalan_and_keep_floor():
    half = Fraction(1, 2)
    for row in census_rows_dp(DP_CAP):
        assert row.total == catalan(row.n)
        assert row.u >= row.v
        assert row.ratio >= half
        assert (row.ratio == half) == (row.n == 2)


@pytest.mark.parametrize("max_n", [
    150,
    pytest.param(DP_CAP, marks=pytest.mark.slow),
])
def test_dp_matches_first_passage_oracle(max_n):
    assert [row.u for row in census_rows_dp(max_n)] == census_u_by_first_passage(max_n)


def test_dp_matches_dynamic_program_oracle():
    assert [row.u for row in census_rows_dp(DP_CAP)] == census_u_by_dp(DP_CAP)


def test_dp_matches_binomial_walk_oracle():
    # past the default cap: the Pascal-updated series is cut off at x^1001
    rows = census_rows_dp(1000, cap=1000)
    assert [row.u for row in rows] == census_u_by_binomial_walk(1000)


def test_dp_carries_catalan_without_calling_it(monkeypatch):
    # the total is carried by its recurrence: catalan() is never called, and
    # test_ranks checks the recurrence against catalan() for every n <= 2000
    calls = []
    monkeypatch.setattr(census_mod, "catalan", calls.append)
    totals = [row.total for row in census_rows_dp(DP_CAP)]
    assert calls == []
    assert totals == [catalan(n) for n in range(1, DP_CAP + 1)]


# The census counts nothing itself: the walk it reads certifies its length
# against the `catalan` binding of `ranks`, here set one above and one below.
def test_enumerative_checks_its_sum_against_catalan(monkeypatch):
    monkeypatch.setattr(ranks_mod, "catalan", lambda n: 6)
    with pytest.raises(ConstructionError) as raised:
        census_enumerative(3)
    assert str(raised.value) == (
        "walk bug: the rank-sequence walk of length 3 yielded 5 items, not catalan(3) = 6")


def test_enumerative_stops_a_walk_that_never_ends(monkeypatch):
    monkeypatch.setattr(ranks_mod, "catalan", lambda n: 4)
    with pytest.raises(ConstructionError) as raised:
        census_enumerative(3)
    assert str(raised.value) == (
        "walk bug: the rank-sequence walk of length 3 yielded more than catalan(3) = 4 items")


def test_dp_window_leaves_rows_unchanged_for_every_max_n():
    # after row n the series keeps coefficients from 2n - max_n + 1 up, a
    # bound that moves with max_n and its parity
    rows300 = list(census_rows_dp(DP_CAP))
    for max_n in [*range(1, 65), 149, 150, 151, 298, 299]:
        assert list(census_rows_dp(max_n)) == rows300[:max_n], max_n


def test_dp_additions_are_pinned(monkeypatch):
    # an under-trimmed window keeps every row exact and only adds more; the
    # number of additions at max_n = 300 pins the trim: 302 for (1+x) g
    # before the first row, then two Pascal steps over each live window
    calls = 0

    def add(a, b):
        nonlocal calls
        calls += 1
        return a + b

    monkeypatch.setattr(census_mod, "operator", types.SimpleNamespace(add=add))
    rows = census_rows_dp(300)
    next(rows)
    assert calls == 302
    assert len(list(rows)) == 299
    assert calls == 135900


def test_dp_deterministic():
    first = list(census_rows_dp(25))
    second = list(census_rows_dp(25))
    assert first == second


def test_census_caps():
    with pytest.raises(InputError, match="capped"):
        list(census_rows_dp(301))
    with pytest.raises(InputError, match="capped"):
        census_enumerative(13)
    with pytest.raises(InputError):
        list(census_rows_dp(0))


def test_row_serialization():
    record = list(census_rows_dp(3))[-1].to_json_dict()
    assert record == {
        "n": 3, "catalan": "5", "u": "3", "v": "2",
        "ratio_num": "3", "ratio_den": "5",
    }
    # the key order is the csv header
    assert tuple(record) == ("n", "catalan", "u", "v", "ratio_num", "ratio_den")


def test_hand_built_row_derives_v_and_ratio():
    row = CensusRow(4, 14, 8)
    assert (row.v, row.ratio) == (6, Fraction(4, 7))
    assert row == census_enumerative(4) == list(census_rows_dp(4))[-1]
    assert repr(row) == "CensusRow(n=4, total=14, u=8, v=6, ratio=Fraction(4, 7))"
    with pytest.raises(TypeError):
        CensusRow(3, 5, 3, 2, Fraction(3, 5))


def test_ulis_count_all_small():
    assert [ulis_count_all(n) for n in range(0, 7)] == [1, 1, 1, 3, 10, 44, 238]


@pytest.mark.parametrize("n", [*range(9), pytest.param(9, marks=pytest.mark.slow)])
def test_ulis_count_all_matches_search_oracle(n):
    assert ulis_count_all(n) == ulis_count_by_search(n)


def test_ulis_count_all_cap():
    with pytest.raises(InputError, match="capped"):
        ulis_count_all(11)
    assert ulis_count_all(5, cap=5) == 44
