import itertools
import tracemalloc

import pytest

from ulisperm import (
    InputError,
    Permutation,
    RankSequence,
    RunReport,
    SUITE_NAMES,
    catalan,
    census_enumerative,
    census_rows_dp,
    enumerate_avoiders,
    enumerate_rank_sequences,
    invert,
    run_suite,
    ulis_count_all,
    uniquify_lis,
    uniquify_max,
)
from ulisperm import cli as cli_mod
from ulisperm import ranks as ranks_mod
from ulisperm import verify as verify_mod
from ulisperm.permutations import start_lengths_counts


def test_suite_names():
    assert set(SUITE_NAMES) == {
        "bijection", "lemma1", "injection-f", "injection-g",
        "characterization", "catalan", "oeis",
    }


@pytest.mark.parametrize("suite,max_n", [
    ("bijection", 6),
    ("lemma1", 6),
    ("injection-f", 8),
    ("injection-g", 6),
    ("characterization", 6),
    ("catalan", 6),
    ("oeis", 5),
])
def test_suites_pass_small(suite, max_n):
    report = run_suite(suite, max_n)
    assert report.passed, report.outcome
    assert report.parameters == {"suite": suite, "max_n": max_n}
    assert report.duration_ms >= 0


def test_unknown_suite():
    with pytest.raises(InputError, match="unknown suite"):
        run_suite("nonsense", 3)


def test_max_n_over_cap():
    with pytest.raises(InputError, match="capped"):
        run_suite("oeis", 11)
    with pytest.raises(InputError):
        run_suite("bijection", 0)


def test_defaults_applied():
    report = run_suite("oeis", 4)
    assert report.parameters["max_n"] == 4
    assert run_suite("lemma1").parameters["max_n"] == 9


def test_payload_shape():
    report = run_suite("catalan", 4)
    payload = report.to_payload()
    assert set(payload) == {"command", "parameters", "outcome"}
    assert payload["command"] == "verify"
    assert payload["outcome"]["status"] == "pass"
    assert payload["outcome"]["counts"] == [1, 2, 5, 14]


def test_failure_reports_least_counterexample(monkeypatch):
    # Break the inverse map and watch the bijection suite name the first
    # (lexicographically least) object that exposes the breakage.
    real_invert = verify_mod.invert

    def broken_invert(t):
        return Permutation(tuple(reversed(real_invert(t).entries)))

    monkeypatch.setattr(verify_mod, "invert", broken_invert)
    report = run_suite("bijection", 4)
    assert not report.passed
    example = report.outcome["counterexample"]
    assert example["n"] == 2
    assert example["permutation"] == "1 2"


def test_run_report_is_dataclass():
    report = RunReport({"suite": "catalan", "max_n": 2}, {"status": "pass"}, 1.0)
    assert report.passed


def _miscounts_3124(p):
    lengths, counts = start_lengths_counts(p)
    if p.entries == (3, 1, 2, 4):
        counts[1] = 2
    return lengths, counts


def _f_joins_fifth_to_third(t):
    # The 3rd and 5th tied-maximum sequences of length 5 share an image, so
    # the collision's first preimage is not the first input of its length.
    if t.values == (1, 2, 2, 2, 1):
        t = RankSequence((1, 2, 1, 2, 1))
    return uniquify_max(t)


def _g_joins_fifth_to_third(p):
    # Likewise for the 3rd and 5th avoiders of length 5 without a unique
    # longest increasing subsequence.
    if p.entries == (3, 4, 1, 2, 5):
        p = Permutation((3, 2, 4, 1, 5))
    return uniquify_lis(p)


def _endless_sequences(n):
    # every rank sequence of length n, then the first one again, forever
    return itertools.chain(enumerate_rank_sequences(n),
                           itertools.repeat(RankSequence((1,) * n)))


# One case per failure site of every suite, plus a second case for each
# collision whose first preimage is not the first input of its length, and
# the catalan suite's count of a walk that never ends: the name broken in
# ulisperm.verify, its replacement, and the counterexample and counters of
# the failing run at max_n = 6.
FAILURE_CASES = [
    pytest.param(
        "bijection", "invert", lambda t: Permutation(tuple(reversed(invert(t).entries))),
        {"n": 2, "permutation": "1 2", "rank_sequence": "2 1", "reconstructed": "2 1"},
        {"round_trips": 3}, id="bijection-avoider-round-trip"),
    pytest.param(
        "bijection", "enumerate_avoiders", lambda n: list(enumerate_avoiders(n))[:-1],
        {"n": 1, "avoiders": 0, "catalan": 1}, {"round_trips": 0},
        id="bijection-avoider-count"),
    pytest.param(
        "bijection", "enumerate_rank_sequences", _endless_sequences,
        {"n": 1, "sequences": 2, "catalan": 1}, {"round_trips": 3},
        id="bijection-sequence-count"),
    pytest.param(
        "lemma1", "start_lengths_counts", _miscounts_3124,
        {"n": 4, "permutation": "3 1 2 4", "position": 2, "count": 2},
        {"permutations": 13}, id="lemma1-count"),
    pytest.param(
        "injection-f", "uniquify_max", lambda t: RankSequence((1,) * t.n),
        {"n": 3, "first": "1 1 1", "second": "2 2 1", "image": "1 1 1"},
        {"inputs": 3}, id="injection-f-collision"),
    pytest.param(
        "injection-f", "uniquify_max", _f_joins_fifth_to_third,
        {"n": 5, "first": "1 2 1 2 1", "second": "1 2 2 2 1", "image": "1 3 2 2 1"},
        {"inputs": 14}, id="injection-f-collision-later-first"),
    pytest.param(
        "injection-g", "uniquify_lis", lambda p: p,
        {"n": 2, "permutation": "2 1", "image": "2 1",
         "reason": "image lacks a unique longest increasing subsequence"},
        {"domain": 1}, id="injection-g-no-ulis"),
    pytest.param(
        "injection-g", "uniquify_lis", lambda p: Permutation(tuple(range(1, p.n + 1))),
        {"n": 3, "first": "2 1 3", "second": "3 2 1", "image": "1 2 3"},
        {"domain": 3}, id="injection-g-collision"),
    pytest.param(
        "injection-g", "uniquify_lis", _g_joins_fifth_to_third,
        {"n": 5, "first": "3 2 4 1 5", "second": "3 4 1 2 5", "image": "2 3 4 1 5"},
        {"domain": 14}, id="injection-g-collision-later-first"),
    pytest.param(
        "characterization", "has_ulis", lambda p: True,
        {"n": 2, "permutation": "2 1", "has_ulis": True, "unique_max": False},
        {"permutations": 3}, id="characterization-object"),
    pytest.param(
        "characterization", "census_enumerative", lambda n: census_enumerative(n + 1),
        {"n": 2, "avoider_count": 1, "census_u": 3},
        {"permutations": 3}, id="characterization-census-u"),
    pytest.param(
        "catalan", "catalan", lambda n: catalan(n + 1),
        {"n": 1, "avoiders": 1, "catalan": 2}, {}, id="catalan-avoiders"),
    pytest.param(
        "catalan", "enumerate_rank_sequences", lambda n: list(
            itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1))[:-1],
        {"n": 1, "sequences": 0, "catalan": 1}, {}, id="catalan-sequences"),
    pytest.param(
        "catalan", "enumerate_rank_sequences", _endless_sequences,
        {"n": 1, "sequences": 2, "catalan": 1}, {}, id="catalan-sequences-endless"),
    pytest.param(
        "oeis", "fixture_text", lambda: "1 1\n2 1\n",
        {"n": 3, "reason": "missing from bundled A167995"}, {}, id="oeis-missing"),
    pytest.param(
        "oeis", "ulis_count_all", lambda n: ulis_count_all(n - 1),
        {"n": 3, "computed": 1, "fixture": 3},
        {"compared": 2}, id="oeis-mismatch"),
]


@pytest.mark.parametrize("suite,name,fake,counterexample,stats", FAILURE_CASES)
def test_failure_payload(monkeypatch, suite, name, fake, counterexample, stats):
    monkeypatch.setattr(verify_mod, name, fake)
    report = run_suite(suite, 6)
    assert report.to_payload() == {
        "command": "verify",
        "parameters": {"suite": suite, "max_n": 6},
        "outcome": {"status": "fail", "counterexample": counterexample, **stats},
    }


_DECODE_FAULT = "decoding 2 1 gave 1 2, not a 132-avoider with those ranks"


def test_construction_fault_fails_the_suite(monkeypatch, capsys):
    # A decode whose certificate fails ends the run as a failure naming it,
    # in the library and in the CLI, not in a traceback.
    real_sweep = ranks_mod._sweep_132

    def misreports_12(entries):
        if entries == (1, 2):
            return -1, (1, 1)
        return real_sweep(entries)

    monkeypatch.setattr(ranks_mod, "_sweep_132", misreports_12)
    for suite in ("bijection", "injection-g"):
        assert run_suite(suite, 6).to_payload() == {
            "command": "verify",
            "parameters": {"suite": suite, "max_n": 6},
            "outcome": {"status": "fail", "counterexample": {"error": _DECODE_FAULT}},
        }
    assert cli_mod.main(["verify", "bijection", "--max-n", "6"]) == 1
    out, err = capsys.readouterr()
    assert out == ('FAIL bijection max_n=6 {"counterexample": {"error": '
                   f'"{_DECODE_FAULT}"}}}}\n')
    assert err.startswith("duration_ms=")


def test_injection_g_cap_fits_bytes_keys():
    # injection-g keys its images by bytes(image.entries), which is exact
    # only while every entry is below 256.
    _, _, cap = verify_mod._SUITES["injection-g"]
    assert cap < 256


def test_injection_f_peak_memory_per_image():
    # No image is kept: one flag byte per rank sequence of the current length
    # marks the images seen, so the traced peak of the run to n = 10 stays
    # below 40 B per image of length 10.  An untraced run first fills
    # CPython's free lists, so little of the figure depends on what ran before.
    # On Python 3.11 it measures 3-21 B; a set of bytes keys measured
    # 120-127 B, and a dict from image tuples to formatted preimages 236-291 B.
    images = list(census_rows_dp(10))[-1].v
    assert images == 7_979
    assert run_suite("injection-f", 10).passed
    tracemalloc.start()
    try:
        assert run_suite("injection-f", 10).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / images < 40


def test_passing_injection_runs_format_nothing(monkeypatch):
    formatted = []
    for cls in (RankSequence, Permutation):
        def counting(self, real=cls.__str__):
            formatted.append(self)
            return real(self)
        monkeypatch.setattr(cls, "__str__", counting)
    assert run_suite("injection-f", 9).passed
    assert run_suite("injection-g", 8).passed
    assert formatted == []
    assert str(RankSequence((1,))) == str(Permutation((1,))) == "1"
    assert len(formatted) == 2
