import time
import tracemalloc

import pytest

from ulisperm import (
    ConstructionError,
    InputError,
    Permutation,
    RankSequence,
    RunReport,
    SUITE_NAMES,
    catalan,
    census_enumerative,
    census_rows_dp,
    run_suite,
    ulis_count_all,
)
from ulisperm import cli as cli_mod
from ulisperm import permutations as permutations_mod
from ulisperm import ranks as ranks_mod
from ulisperm import verify as verify_mod
from ulisperm.permutations import _start_lengths_counts, format_values
from ulisperm.ranks import _decode
from ulisperm.ulis import _bump, _stages


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


def test_run_report_is_dataclass():
    report = RunReport({"suite": "catalan", "max_n": 2}, {"status": "pass"}, 1.0)
    assert report.passed


def _miscounts_3124(e):
    lengths, counts = _start_lengths_counts(e)
    if e == (3, 1, 2, 4):
        counts[1] = 2
    return lengths, counts


def _f_joins_fifth_to_third(values):
    # The 3rd and 5th tied-maximum sequences of length 5 share an image, so
    # the collision's first preimage is not the first input of its length.
    if values == (1, 2, 2, 2, 1):
        values = (1, 2, 1, 2, 1)
    return _bump(values)


def _g_joins_fifth_to_third(e):
    # Likewise for the 3rd and 5th avoiders of length 5 without a unique
    # longest increasing subsequence.
    if e == (3, 4, 1, 2, 5):
        e = (3, 2, 4, 1, 5)
    return _stages(e)


def _g_image(image_of):
    # `ulis._stages` with its last stage, the image, replaced
    return lambda e: (*_stages(e)[:2], image_of(e))


# One case per failure site of every suite, plus a second case for each
# collision whose first preimage is not the first input of its length: the
# name broken in ulisperm.verify, its replacement, and the counterexample and
# counters of the failing run at max_n = 6.  The suites call the tuple twins
# of the public kernels, so the fakes take and return plain tuples; a fake
# bump returns None where `_bump` does, on a unique maximum.  A miscounted
# walk has no site in the suites; the walk itself fails, as tested below.
FAILURE_CASES = [
    pytest.param(
        "bijection", "_decode", lambda values: _decode(values)[::-1],
        {"n": 2, "permutation": "1 2", "rank_sequence": "2 1", "reconstructed": "2 1"},
        {"round_trips": 3}, id="bijection-avoider-round-trip"),
    pytest.param(
        "lemma1", "_start_lengths_counts", _miscounts_3124,
        {"n": 4, "permutation": "3 1 2 4", "position": 2, "count": 2},
        {"permutations": 13}, id="lemma1-count"),
    pytest.param(
        "injection-f", "_bump", lambda values: _bump(values) and (1,) * len(values),
        {"n": 2, "sequence": "1 1", "image": "1 1", "restored": None},
        {"inputs": 1}, id="injection-f-round-trip"),
    pytest.param(
        "injection-f", "_bump", lambda values: _bump(values) and _bump((1,) * len(values)),
        {"n": 3, "first": "1 1 1", "second": "2 2 1", "image": "1 2 1"},
        {"inputs": 3}, id="injection-f-collision"),
    pytest.param(
        "injection-f", "_bump", _f_joins_fifth_to_third,
        {"n": 5, "first": "1 2 1 2 1", "second": "1 2 2 2 1", "image": "1 3 2 2 1"},
        {"inputs": 14}, id="injection-f-collision-later-first"),
    pytest.param(
        "injection-g", "_stages", _g_image(lambda e: e),
        {"n": 2, "permutation": "2 1", "image": "2 1",
         "reason": "image lacks a unique longest increasing subsequence"},
        {"domain": 1}, id="injection-g-no-ulis"),
    pytest.param(
        "injection-g", "_stages", _g_image(lambda e: tuple(range(1, len(e) + 1))),
        {"n": 3, "first": "2 1 3", "second": "3 2 1", "image": "1 2 3"},
        {"domain": 3}, id="injection-g-collision"),
    pytest.param(
        "injection-g", "_stages", _g_joins_fifth_to_third,
        {"n": 5, "first": "3 2 4 1 5", "second": "3 4 1 2 5", "image": "2 3 4 1 5"},
        {"domain": 14}, id="injection-g-collision-later-first"),
    pytest.param(
        "characterization", "_has_ulis", lambda e: True,
        {"n": 2, "permutation": "2 1", "has_ulis": True, "unique_max": False},
        {"permutations": 3}, id="characterization-object"),
    pytest.param(
        "characterization", "census_enumerative", lambda n: census_enumerative(n + 1),
        {"n": 2, "avoider_count": 1, "census_u": 3},
        {"permutations": 3}, id="characterization-census-u"),
    pytest.param(
        "characterization", "census_rows_dp", lambda max_n: list(census_rows_dp(max_n + 1))[1:],
        {"n": 2, "avoider_count": 1, "dp_u": 3},
        {"permutations": 3}, id="characterization-dp-u"),
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

    def misreports_12(e):
        if e == (1, 2):
            return None, (1, 1)
        return real_sweep(e)

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


_RANK_SEQUENCE_SUITES = ("bijection", "injection-f", "characterization", "catalan")
_AVOIDER_SUITES = ("bijection", "lemma1", "injection-g", "characterization", "catalan")


# Each Catalan walk certifies its own length against the `catalan` binding of
# its module, and the suites count no walk themselves, so a walk told one item
# less or one more than catalan(n) fails every suite that walks that family.
# The suites start at n = 1, and both walks certify their one item there:
# told one less, a walk of length 1 is told 0 and stops before its item; told
# one more, it ends short.
@pytest.mark.parametrize("module, shift, suites, error", [
    pytest.param(ranks_mod, -1, _RANK_SEQUENCE_SUITES,
                 "the rank-sequence walk of length 1 yielded more than catalan(1) = 0 items",
                 id="rank-sequence"),
    pytest.param(permutations_mod, -1, _AVOIDER_SUITES,
                 "the avoider walk of length 1 yielded more than catalan(1) = 0 items",
                 id="avoider"),
    pytest.param(ranks_mod, 1, _RANK_SEQUENCE_SUITES,
                 "the rank-sequence walk of length 1 yielded 1 items, not catalan(1) = 2",
                 id="rank-sequence-short"),
    pytest.param(permutations_mod, 1, _AVOIDER_SUITES,
                 "the avoider walk of length 1 yielded 1 items, not catalan(1) = 2",
                 id="avoider-short"),
])
def test_every_suite_fails_fast_on_a_miscounted_walk(monkeypatch, module, shift, suites, error):
    monkeypatch.setattr(module, "catalan", lambda n: catalan(n) + shift)
    error = f"walk bug: {error}"
    for suite in suites:
        started = time.perf_counter()
        report = run_suite(suite, 6)
        assert time.perf_counter() - started < 1, suite
        assert report.outcome == {"status": "fail", "counterexample": {"error": error}}, suite


def test_injection_g_cap_fits_bytes_keys():
    # injection-g keys its images by bytes(image), and bijection stores its
    # decodes as bytes: both exact only while every entry is below 256.
    for suite in ("injection-g", "bijection"):
        _, _, cap = verify_mod._SUITES[suite]
        assert cap < 256, suite


@pytest.mark.parametrize("suite, objects", [
    # No image is kept: each one is checked against its input by the bump's
    # left inverse and dropped.  On Python 3.11 it measures 6-19 B per image;
    # a set of bytes keys measured 120-127 B, and a dict from image tuples to
    # formatted preimages 236-291 B.
    pytest.param("injection-f", list(census_rows_dp(10))[-1].v, id="injection-f"),
    # The decodes of one length are kept as n bytes each until the avoider
    # walk has matched them.  On Python 3.11 it measures about 11 B per rank
    # sequence; a list of decoded tuples measured about 127 B.
    pytest.param("bijection", catalan(10), id="bijection"),
])
def test_peak_memory_per_object(suite, objects):
    # The traced peak of the run to n = 10 stays below 40 B per object of
    # length 10: per image for injection-f, per rank sequence for bijection.
    # An untraced run first fills CPython's free lists, so little of the
    # figure depends on what ran before.
    assert objects == {"injection-f": 7_979, "bijection": 16_796}[suite]
    assert run_suite(suite, 10).passed
    tracemalloc.start()
    try:
        assert run_suite(suite, 10).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / objects < 40


def _counting(monkeypatch, calls, module, name):
    # replace module.name with a wrapper that counts its calls in calls[name]
    real = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    calls[name] = 0
    monkeypatch.setattr(module, name, counted)


def test_bijection_decodes_each_rank_sequence_once(monkeypatch):
    # A passing run decodes each rank sequence once and matches the avoider
    # walk against the decodes in reverse; it takes no avoider's ranks.
    calls = {}
    for name in ("_decode", "_start_ranks", "validate_values"):
        _counting(monkeypatch, calls, verify_mod, name)
    report = run_suite("bijection", 7)
    sequences = sum(catalan(n) for n in range(1, 8))
    assert sequences == 625
    assert report.outcome == {"status": "pass", "round_trips": 2 * sequences}
    assert calls == {"_decode": sequences, "_start_ranks": 0, "validate_values": 0}


def test_bijection_fallback_keeps_the_suite_order(monkeypatch):
    # A length the one pass cannot confirm is walked again avoiders first, so
    # the fault reported is the one that walk meets first: 2 2 1, the ranks of
    # 2 1 3, not 1 2 1, which the rank-sequence walk meets first.
    def refuses_121_and_221(values):
        if values in ((1, 2, 1), (2, 2, 1)):
            raise ConstructionError(f"refused {format_values(values)}")
        return _decode(values)

    monkeypatch.setattr(verify_mod, "_decode", refuses_121_and_221)
    assert run_suite("bijection", 6).outcome == {
        "status": "fail", "counterexample": {"error": "refused 2 2 1"}}


def test_bijection_fallback_passes_avoiders_out_of_order(monkeypatch):
    # The avoiders of length 4 yielded in reverse are no longer the decodes in
    # reverse, so that length alone is walked object by object, and passes.
    real = verify_mod._generate_avoiders

    def length_4_reversed(n, sig):
        return reversed(list(real(n, sig))) if n == 4 else real(n, sig)

    calls = {}
    _counting(monkeypatch, calls, verify_mod, "_start_ranks")
    monkeypatch.setattr(verify_mod, "_generate_avoiders", length_4_reversed)
    assert run_suite("bijection", 6).outcome == {"status": "pass", "round_trips": 392}
    assert calls == {"_start_ranks": catalan(4)}


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


def test_suites_wrap_nothing_on_a_passing_run(monkeypatch):
    # bijection, lemma1, injection-g and characterization walk and check the
    # plain tuples of the private walks; only catalan, whose claim is about
    # the public enumerators, drains them, objects and all
    built = []
    for cls in (Permutation, RankSequence):
        def counting_wrap(values, cls=cls, wrap=cls._trusted):
            built.append((cls.__name__, "_trusted"))
            return wrap(values)

        def counting_init(self, values, init=cls.__init__):
            built.append((type(self).__name__, "__init__"))
            init(self, values)

        monkeypatch.setattr(cls, "_trusted", counting_wrap)
        monkeypatch.setattr(cls, "__init__", counting_init)
    for suite in ("bijection", "lemma1", "injection-g", "characterization"):
        assert run_suite(suite, 7).passed, suite
    assert built == []
    # the counters do see each way in
    Permutation._trusted((1,)), RankSequence._trusted((1,))
    Permutation((1,)), RankSequence((1,))
    assert built == [("Permutation", "_trusted"), ("RankSequence", "_trusted"),
                     ("Permutation", "__init__"), ("RankSequence", "__init__")]

    items = {}
    for name in ("enumerate_avoiders", "enumerate_rank_sequences"):
        def tally(n, real=getattr(verify_mod, name), name=name):
            for item in real(n):
                items[name] = items.get(name, 0) + 1
                yield item
        monkeypatch.setattr(verify_mod, name, tally)
    assert run_suite("catalan", 5).passed
    total = sum(catalan(n) for n in range(1, 6))
    assert total == 64
    assert items == {"enumerate_avoiders": total, "enumerate_rank_sequences": total}
