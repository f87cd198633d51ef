"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with `pytest -s`); all bounds and
tolerances are exact -- every quantity in this package is an integer or a
rational, so "tolerance" always means equality.

    pytest tests/test_acceptance.py -v -s
"""

import itertools
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ulisperm import (
    FetchFallbackWarning,
    catalan,
    census_enumerative,
    census_rows_dp,
    enumerate_avoiders,
    enumerate_rank_sequences,
    fetch_bfile,
    fixture_text,
    parse_bfile,
    run_suite,
    ulis_count_all,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL {number}: {description}", flush=True)
        raise
    print(f"ACCEPTANCE PASS {number}: {description}", flush=True)


@pytest.fixture(scope="module")
def dp_rows():
    return list(census_rows_dp(300))


@pytest.fixture(scope="module")
def enumerative_rows():
    return [census_enumerative(n) for n in range(1, 13)]


def test_criterion_1_catalan_identity():
    with criterion(1, "avoiders and rank sequences both counted by catalan(n)"):
        report = run_suite("catalan", 10)
        assert report.passed, report.outcome
        for n in (11, 12):
            walk = itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1)
            assert sum(1 for _ in walk) == catalan(n)


def test_criterion_2_unique_start_subsequences():
    with criterion(2, "every avoider entry starts exactly one maximal "
                      "increasing subsequence (n <= 9)"):
        report = run_suite("lemma1", 9)
        assert report.passed, report.outcome
        assert report.outcome["permutations"] == sum(catalan(n) for n in range(1, 10))


def test_criterion_3_bijection_round_trips():
    with criterion(3, "both rank-map round trips are identities (n <= 10)"):
        report = run_suite("bijection", 10)
        assert report.passed, report.outcome


def test_criterion_4_characterization():
    with criterion(4, "unique longest increasing subsequence iff unique "
                      "rank maximum (n <= 10)"):
        report = run_suite("characterization", 10)
        assert report.passed, report.outcome


def test_criterion_5_injections(enumerative_rows):
    with criterion(5, "sequence-level injection (n <= 12) and "
                      "permutation-level injection (n <= 10); u >= v"):
        report_f = run_suite("injection-f", 12)
        assert report_f.passed, report_f.outcome
        tied = sum(row.v for row in enumerative_rows)
        assert tied == 139_038
        assert (report_f.outcome["inputs"] == report_f.outcome["distinct_images"]
                == tied)
        report_g = run_suite("injection-g", 10)
        assert report_g.passed, report_g.outcome
        without_ulis = sum(row.v for row in enumerative_rows if row.n <= 10)
        assert without_ulis == 11_235
        assert (report_g.outcome["domain"] == report_g.outcome["distinct_images"]
                == without_ulis)
        for row in enumerative_rows:
            assert row.u >= row.v, row


def test_criterion_6_inequality_at_scale(dp_rows, enumerative_rows):
    with criterion(6, "exact ratio >= 1/2 for n = 1..300 with equality "
                      "only at n = 2; DP rows equal enumerative rows (n <= 12)"):
        half = Fraction(1, 2)
        assert len(dp_rows) == 300
        for row in dp_rows:
            assert row.ratio >= half, row
            assert (row.ratio == half) == (row.n == 2), row
            assert row.total == catalan(row.n)
        for enum_row in enumerative_rows:
            assert dp_rows[enum_row.n - 1] == enum_row


def test_criterion_7_limit_consistency(dp_rows):
    with criterion(7, "ratio at n = 300 lies strictly between 1/2 and the "
                      "ratio at n = 10"):
        r10 = dp_rows[9].ratio
        r300 = dp_rows[299].ratio
        assert Fraction(1, 2) < r300 < r10
        print(f"  ratio(10) = {float(r10):.12g}, ratio(300) = {float(r300):.12g} "
              f"(displays only; stored exactly)", flush=True)


def test_criterion_8_oeis_cross_check():
    with criterion(8, "exact unique-subsequence counts over all permutations "
                      "match the bundled A167995 data (n <= 9)"):
        report = run_suite("oeis", 9)
        assert report.passed, report.outcome
        assert report.outcome["compared"] == 9


def test_criterion_8_extension_n10():
    with criterion("8s", "bundled A167995 entry at n = 10 matches the exact "
                         "count over all permutations"):
        table = {e.index: e.value for e in parse_bfile(fixture_text())}
        assert table[10] == ulis_count_all(10)


@pytest.mark.network
def test_criterion_8_live_fetch_overlap():
    with criterion("8n", "live b-file agrees with the bundled data on overlap"):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            live_text = fetch_bfile("A167995", online=True, timeout=15.0)
        if any(isinstance(w.message, FetchFallbackWarning) for w in caught):
            pytest.skip("network unavailable; live comparison not possible")
        live = {e.index: e.value for e in parse_bfile(live_text)}
        bundled = {e.index: e.value for e in parse_bfile(fixture_text())}
        overlap = set(live) & set(bundled)
        assert overlap
        for n in sorted(overlap):
            assert live[n] == bundled[n], n
