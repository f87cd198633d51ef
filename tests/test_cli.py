import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import pkgutil
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ulisperm
from ulisperm import (
    ALL_PERMUTATION_CAP,
    AVOIDER_CAP,
    SEQUENCE_CAP,
    InputError,
    Permutation,
    RankSequence,
    catalan,
    enumerate_rank_sequences,
    invert,
    uniquify_max,
)
from ulisperm import census as census_mod
from ulisperm import cli as cli_mod
from ulisperm import oeis as oeis_mod
from ulisperm import ranks as ranks_mod
from ulisperm import verify as verify_mod
from ulisperm.cli import main
from ulisperm.permutations import start_lengths_counts

from oracles import _digit_limit, census_summary_by_fractions

# Exact stdout and exit code per argv, one case per line: every output
# format of every listing, count, census, verify and oeis command, and the
# rank/map variants.  The bytes are the specification; refactors keep them.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", GOLDEN,
                         ids=lambda case: "_".join(a.replace(" ", "") for a in case["argv"]))
def test_golden_stdout(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


def _child_env(**extra: str) -> dict[str, str]:
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


# Runs every golden argv in one new interpreter, in file order: each command
# imports what it runs itself, which the cases above cannot show once any
# test has loaded every module.
_GOLDEN_PROBE = """
import contextlib, io, json, sys
from ulisperm.cli import main
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results.append({"code": code, "stdout": out.getvalue()})
print(json.dumps(results))
"""


def test_golden_stdout_in_a_fresh_optimized_process():
    # -O strips every assert; the string-hash seed is fixed, not random
    proc = subprocess.run([sys.executable, "-O", "-c", _GOLDEN_PROBE],
                          input=json.dumps([case["argv"] for case in GOLDEN]),
                          env=_child_env(PYTHONHASHSEED="12345"),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == [
        {"code": case["code"], "stdout": case["stdout"]} for case in GOLDEN]


# --- rank ------------------------------------------------------------------

def test_rank(capsys):
    code, out, err = run(capsys, "rank", "2 1 3")
    assert (code, out, err) == (0, "2 2 1\n", "")


def test_rank_compact_input(capsys):
    code, out, _ = run(capsys, "rank", "34256178")
    assert code == 0
    assert out == "6 5 5 4 3 3 2 1\n"


def test_rank_invert(capsys):
    code, out, _ = run(capsys, "rank", "--invert", "1 1 1")
    assert (code, out) == (0, "3 2 1\n")


def test_rank_warns_on_pattern(capsys):
    code, out, err = run(capsys, "rank", "1 3 2")
    assert code == 0
    assert out == "2 1 1\n"
    assert "contains 132" in err and "still well-defined" in err


def test_avoider_paths_skip_the_fenwick_kernel(capsys, monkeypatch):
    # `rank` on an avoider, `rank --invert`, `invert`'s check and `map` take
    # ranks from the linear 132 sweep; the general kernel runs only on a 132
    calls = 0
    kernel = start_lengths_counts

    def counting(p):
        nonlocal calls
        calls += 1
        return kernel(p)

    # every module, so that none the commands load later keeps the kernel
    for info in pkgutil.iter_modules(ulisperm.__path__):
        importlib.import_module(f"ulisperm.{info.name}")
    for name, module in list(sys.modules.items()):
        if name.startswith("ulisperm") and hasattr(module, "start_lengths_counts"):
            monkeypatch.setattr(module, "start_lengths_counts", counting)
    for n in range(1, 7):
        for t in itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1):
            p = invert(t)
            assert run(capsys, "rank", str(p)) == (0, f"{t}\n", "")
            assert run(capsys, "rank", "--invert", str(t)) == (0, f"{p}\n", "")
            if t.values.count(max(t.values)) > 1:
                lifted = uniquify_max(t)
                image = invert(lifted)
                assert run(capsys, "map", str(p)) == (0, f"{image}\n", "")
                assert run(capsys, "map", "--trace", str(p)) == (
                    0, f"ranks:  {t}\nlifted: {lifted}\n{image}\n", "")
    ones, staircase = " ".join(["1"] * 1000), " ".join(map(str, range(1000, 0, -1)))
    assert run(capsys, "rank", staircase)[1] == ones + "\n"
    assert run(capsys, "rank", "--invert", ones)[1] == staircase + "\n"
    image = invert(uniquify_max(RankSequence.from_text(ones)))
    assert run(capsys, "map", staircase) == (0, f"{image}\n", "")
    assert verify_mod.run_suite("bijection", 8).passed
    assert calls == 0
    assert run(capsys, "rank", "1 3 2")[1] == "2 1 1\n"
    assert calls == 1  # the counter does see the kernel


def test_rank_bad_input(capsys):
    code, _, err = run(capsys, "rank", "1 1 2")
    assert code == 2
    assert err.startswith("error:")


def test_rank_invert_invalid_sequence(capsys):
    code, _, err = run(capsys, "rank", "--invert", "1 3 1")
    assert code == 2
    assert "drop" in err


@pytest.mark.parametrize("argv, error", [
    (["rank", "+2 +1"], "not an integer sequence"),
    (["rank", "\uff12 \uff11"], "not an integer sequence"),
    (["rank", "--invert", "1_1 1"], "not an integer sequence"),
    (["rank", "--invert", "1 -1"], "not positive"),  # parsed, then not a member
], ids=["plus", "fullwidth", "underscore", "minus"])
def test_rank_reads_only_ascii_integer_tokens(capsys, argv, error):
    # int() reads "+", "_" and non-ASCII digits, which format_values never writes
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and error in err


# --- map -------------------------------------------------------------------

def test_map(capsys):
    code, out, _ = run(capsys, "map", "2 1 3")
    assert (code, out) == (0, "1 2 3\n")


def test_map_trace(capsys):
    code, out, _ = run(capsys, "map", "3 2 1", "--trace")
    assert code == 0
    assert out == "ranks:  1 1 1\nlifted: 1 2 1\n3 1 2\n"


def test_map_rejects_unique_subsequence(capsys):
    code, _, err = run(capsys, "map", "1 2 3")
    assert code == 2
    assert "already has" in err


def test_map_rejects_pattern(capsys):
    code, _, err = run(capsys, "map", "1 3 2")
    assert code == 2
    assert "contains 132" in err


def test_map_trace_rejects_like_map(capsys):
    plain = run(capsys, "map", "1 2 3")
    traced = run(capsys, "map", "1 2 3", "--trace")
    assert plain == traced
    assert plain[0] == 2
    assert "unique longest increasing subsequence" in plain[2]


def test_map_trace_rejects_pattern(capsys):
    code, _, err = run(capsys, "map", "1 3 2", "--trace")
    assert code == 2
    assert "contains 132" in err


@pytest.mark.parametrize("text, err", [
    # the empty permutation's empty subsequence is its unique longest one
    ("", "error: input already has a unique longest increasing subsequence: \n"),
    ("1", "error: input already has a unique longest increasing subsequence: 1\n"),
    # the 132 test still comes before the subsequence count
    ("1 3 2", "error: input contains 132 at positions (1, 2, 3): 1 3 2\n"),
])
def test_map_rejection_wording(capsys, text, err):
    assert run(capsys, "map", text) == (2, "", err)


# --- long inputs ---------------------------------------------------------------
#
# No time is asserted: the pattern test, the start-length kernel and the
# decoding in `invert` are linear or O(n log n), and with quadratic ones these
# take seconds to minutes, which `pytest --durations` shows.

LONG_N = 20_000
ENDS_IN_132 = " ".join(map(str, [*range(LONG_N, 3, -1), 1, 3, 2]))
INCREASING = " ".join(map(str, range(1, LONG_N + 1)))
DECREASING = " ".join(map(str, range(LONG_N, 0, -1)))
ONES = " ".join(["1"] * LONG_N)
# about the longest single argv entry Linux takes (128 KiB with its NUL)
ARG_MAX_N = 65_535
ARG_MAX_ONES = " ".join(["1"] * ARG_MAX_N)


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["map", ENDS_IN_132], (2, "", "error: input contains 132 at positions "
                                        f"(19998, 19999, 20000): {ENDS_IN_132}\n"),
                 id="map_132_at_the_end"),
    pytest.param(["map", INCREASING], (2, "", "error: input already has a unique longest "
                                       f"increasing subsequence: {INCREASING}\n"),
                 id="map_increasing"),
    pytest.param(["rank", DECREASING], (0, ONES + "\n", ""), id="rank_decreasing"),
    pytest.param(["rank", "--invert", ONES], (0, DECREASING + "\n", ""), id="rank_invert_ones"),
    pytest.param(["rank", "--invert", ARG_MAX_ONES],
                 (0, " ".join(map(str, range(ARG_MAX_N, 0, -1))) + "\n", ""),
                 id="rank_invert_ones_at_the_argv_limit"),
])
def test_long_argv(capsys, argv, expected):
    assert run(capsys, *argv) == expected


# --- avoiders / sequences ----------------------------------------------------

def test_avoiders_list(capsys):
    code, out, _ = run(capsys, "avoiders", "3")
    assert code == 0
    assert out.splitlines() == ["1 2 3", "2 1 3", "2 3 1", "3 1 2", "3 2 1"]


def test_avoiders_count_other_pattern(capsys):
    code, out, _ = run(capsys, "avoiders", "4", "--count", "--pattern", "3 2 1")
    assert (code, out) == (0, "14\n")


def test_avoiders_over_cap(capsys):
    code, _, err = run(capsys, "avoiders", "13", "--count")
    assert code == 2
    assert "capped" in err


def test_avoiders_json(capsys):
    code, out, _ = run(capsys, "avoiders", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["1 2 3", "2 1 3", "2 3 1", "3 1 2", "3 2 1"]


def test_sequences_list(capsys):
    code, out, _ = run(capsys, "sequences", "3")
    assert out.splitlines() == ["1 1 1", "1 2 1", "2 1 1", "2 2 1", "3 2 1"]
    assert code == 0


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_listing_is_streamed(capsys, monkeypatch, fmt):
    def first_then_fail(n, *, cap):
        yield RankSequence((1,))
        raise InputError("stopped after the first row")

    # `sequences` imports the enumerator from `ranks` when it runs
    monkeypatch.setattr(ranks_mod, "enumerate_rank_sequences", first_then_fail)
    code, out, err = run(capsys, "sequences", "1", "--format", fmt)
    assert code == 2
    assert "stopped" in err
    assert out.splitlines()[-1] == "1"  # written before the stream failed


def test_sequences_count_csv(capsys):
    code, out, _ = run(capsys, "sequences", "12", "--count", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["count", "208012"]


def test_count_does_not_enumerate(capsys):
    # catalan(30) objects are out of any walk's reach; the count is immediate
    for argv in (["avoiders", "30", "--count", "--cap", "30", "--pattern", "3 2 1"],
                 ["sequences", "30", "--count", "--cap", "30"]):
        assert run(capsys, *argv)[:2] == (0, "3814986502092304\n")


def _decimal(text: str) -> int:
    # int() refuses more than 4300 digits too (Python 3.10.7+): read chunks
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


@pytest.mark.parametrize("fmt", ["plain", "json"])
@pytest.mark.parametrize("command", ["avoiders", "sequences"])
def test_count_prints_past_the_digit_limit(capsys, command, fmt):
    # catalan(7153) is the first Catalan number with 4301 digits, one more
    # than str() converts by default from Python 3.10.7 on
    limit = _digit_limit()
    code, out, err = run(capsys, command, "7153", "--cap", "7153", "--count",
                         "--format", fmt)
    assert (code, err) == (0, "")
    text = out.rstrip("\n")
    if fmt == "json":
        assert text.startswith('{"count": ') and text.endswith("}")
        text = text[len('{"count": '):-1]
    assert len(text) == 4301 and _decimal(text) == catalan(7153)
    assert _digit_limit() == limit


def test_count_leaves_input_parsing_limited(capsys):
    if _digit_limit() is None:
        pytest.skip("this Python has no int-to-str digit limit")
    assert run(capsys, "sequences", "7153", "--cap", "7153", "--count")[0] == 0
    # with the limit lifted, int() would spend seconds on this token
    code, out, err = run(capsys, "rank", "1" + "0" * 10**6)
    assert (code, out) == (2, "")
    assert err.startswith("error: not an integer sequence")


# every entry point that reads or prints integers of unchosen size, with a
# callee it reaches while it runs
LIMIT_UNTOUCHED = [
    pytest.param(ranks_mod, "catalan",
                 lambda: main(["sequences", "7153", "--cap", "7153", "--count"]),
                 id="count"),
    pytest.param(census_mod, "census_rows_dp",
                 lambda: main(["census", "--max-n", "20"]), id="census"),
    pytest.param(oeis_mod, "fetch_bfile", lambda: main(["oeis"]), id="oeis"),
    pytest.param(oeis_mod, "BFileEntry",
                 lambda: oeis_mod.parse_bfile("1 " + "7" * 4301), id="parse_bfile"),
]


@pytest.mark.parametrize("module, name, call", LIMIT_UNTOUCHED)
def test_the_digit_limit_is_never_touched(capsys, monkeypatch, module, name, call):
    # the limit is process-wide, so it is read inside each entry point both
    # by the calling thread and by a second one
    limit = _digit_limit()
    if limit is None:
        pytest.skip("this Python has no int-to-str digit limit")
    seen = []
    callee = getattr(module, name)

    def spy(*args, **kwargs):
        other = threading.Thread(target=lambda: seen.append(_digit_limit()))
        other.start()
        other.join()
        seen.append(_digit_limit())
        return callee(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    call()
    assert seen and set(seen) == {limit}


def test_count_without_a_digit_limit(capsys, monkeypatch):
    # Python 3.10.0-3.10.6 has no limit and no functions to set it
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert run(capsys, "sequences", "4", "--count")[:2] == (0, "14\n")


# --- census --------------------------------------------------------------------

# sha256 of the stdout of `census --max-n 300` (the default DP cap), recorded
# at 22f063a, before any change to the dynamic program.
CENSUS_300_SHA256 = "7a8a65b26f9d577e5b594d6d91cf7c7c4db71c261f012c06371649c9984e78b7"


def test_census_to_cap_stdout_bytes(capsys):
    code, out, _ = run(capsys, "census", "--max-n", "300")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_300_SHA256


# sha256 of the stdout of `census --max-n 1000 --cap 1000`, recorded at
# 6e585fb, before the series was updated by Pascal steps.
CENSUS_1000_SHA256 = "384a156df12876adabdef5606784d5826d6ecbbd2ea91fcc4d798e0728358694"


def test_census_past_cap_stdout_bytes(capsys):
    code, out, _ = run(capsys, "census", "--max-n", "1000", "--cap", "1000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_1000_SHA256


def test_census_summary_matches_fraction_oracle_on_dp_rows():
    rows = list(census_mod.census_rows_dp(census_mod.DP_CAP))
    for max_n in range(1, census_mod.DP_CAP + 1):
        assert (cli_mod._census_summary(rows[:max_n])
                == census_summary_by_fractions(rows[:max_n])), max_n


def _rows(*ratios):
    """Hand-built rows n = 1, 2, ... with the given (u, total) pairs."""
    return [census_mod.CensusRow(n, total, u)
            for n, (u, total) in enumerate(ratios, start=1)]


@pytest.mark.parametrize("rows, min_at, all_half, equality_at, tail_from", [
    # tied minima 3/5 at n = 2 and 6/10 at n = 4: the first wins
    pytest.param(_rows((2, 3), (3, 5), (5, 7), (6, 10), (7, 9)), 2, True, [], 5,
                 id="tied_minima"),
    # exactly 1/2 at n = 1, 3, 4, the first of them the minimum
    pytest.param(_rows((1, 2), (3, 4), (2, 4), (5, 10), (3, 5)), 1, True, [1, 3, 4], 5,
                 id="half_at_several_n"),
    pytest.param(_rows((1, 2), (2, 5), (1, 2), (4, 9)), 2, False, [1, 3], 3,
                 id="below_half"),
    # 3/4 = 6/8 = 9/12 inside the non-increasing tail from n = 2
    pytest.param(_rows((1, 2), (4, 5), (3, 4), (6, 8), (9, 12), (2, 3)), 1, True, [1], 2,
                 id="equal_neighbours_in_tail"),
    pytest.param(_rows((1, 1),), 1, True, [], 1, id="one_row"),
])
def test_census_summary_on_hand_built_rows(rows, min_at, all_half, equality_at, tail_from):
    summary = cli_mod._census_summary(rows)
    assert summary == census_summary_by_fractions(rows)
    assert (summary["min_ratio_at"], summary["all_at_least_half"],
            summary["equality_at"], summary["nonincreasing_from"]) == (
        min_at, all_half, equality_at, tail_from)


def test_census_plain(capsys):
    code, out, _ = run(capsys, "census", "--max-n", "3", "--engine", "enumerative")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "1 1 1 0 1/1 1"
    assert lines[2] == "2 2 1 1 1/2 0.5"
    assert lines[3] == "3 5 3 2 3/5 0.6"
    assert "every ratio >= 1/2" in lines[4]


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--max-n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][1] == {
        "n": 2, "catalan": "2", "u": "1", "v": "1",
        "ratio_num": "1", "ratio_den": "2",
    }
    assert payload["summary"]["equality_at"] == [2]
    assert payload["summary"]["all_at_least_half"] is True


def test_census_csv_summary_on_stderr(capsys):
    code, out, err = run(capsys, "census", "--max-n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,catalan,u,v,ratio_num,ratio_den"
    assert out.splitlines()[2] == "2,2,1,1,1,2"
    assert "summary" in err


def test_census_engines_agree(capsys):
    _, enum_out, _ = run(capsys, "census", "--max-n", "9",
                         "--engine", "enumerative", "--format", "json")
    _, dp_out, _ = run(capsys, "census", "--max-n", "9",
                       "--engine", "dp", "--format", "json")
    assert enum_out == dp_out


def test_census_byte_identical(capsys):
    first = run(capsys, "census", "--max-n", "6", "--format", "json")
    second = run(capsys, "census", "--max-n", "6", "--format", "json")
    assert first == second


def test_census_over_cap(capsys):
    code, _, err = run(capsys, "census", "--max-n", "13", "--engine", "enumerative")
    assert code == 2
    assert "capped" in err


@pytest.mark.parametrize("engine", ["enumerative", "dp"])
@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_census_below_one(capsys, engine, max_n):
    code, out, err = run(capsys, "census", "--max-n", max_n, "--engine", engine)
    assert (code, out) == (2, "")
    assert err == f"error: {engine} census needs n >= 1, got {max_n}\n"


@pytest.mark.parametrize("engine", ["enumerative", "dp"])
def test_census_over_a_lowered_cap(capsys, engine):
    code, out, err = run(capsys, "census", "--max-n", "4", "--cap", "3",
                         "--engine", engine)
    assert (code, out) == (2, "")
    assert err == (f"error: {engine} census capped at n = 3 (requested 4); "
                   "pass a higher cap to override\n")


def test_census_prints_past_the_digit_limit(capsys):
    limit = _digit_limit()
    if limit is None:
        pytest.skip("this Python has no int-to-str digit limit")
    sys.set_int_max_str_digits(640)  # the least allowed; catalan(1100) has 658 digits
    try:
        code, out, _ = run(capsys, "census", "--max-n", "1100", "--cap", "1100",
                           "--format", "csv")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    n, total, u, v = out.splitlines()[-1].split(",")[:4]
    assert n == "1100" and _decimal(total) == catalan(1100)
    assert _decimal(u) + _decimal(v) == catalan(1100)


def test_census_over_cap_enumerates_nothing(capsys, monkeypatch):
    calls = []
    walk = census_mod._generate_sequences

    def recording(n):
        calls.append(n)
        return walk(n)

    monkeypatch.setattr(census_mod, "_generate_sequences", recording)
    code, out, err = run(capsys, "census", "--max-n", "13", "--engine", "enumerative")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "capped" in err
    assert calls == []
    # the recorded walk is the one the census takes
    assert run(capsys, "census", "--max-n", "3", "--engine", "enumerative")[0] == 0
    assert calls == [1, 2, 3]


# --- verify ---------------------------------------------------------------------

def test_verify_plain(capsys):
    code, out, err = run(capsys, "verify", "catalan", "--max-n", "5")
    assert code == 0
    assert out.startswith("PASS catalan max_n=5")
    assert err.startswith("duration_ms=")


def test_verify_json(capsys):
    code, out, err = run(capsys, "verify", "bijection", "--max-n", "5",
                         "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["parameters"] == {"max_n": 5, "suite": "bijection"}
    assert payload["outcome"]["status"] == "pass"
    assert "duration_ms" not in payload


def test_verify_stdout_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "oeis", "--max-n", "5", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "oeis", "--max-n", "5", "--format", "json")
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2


def test_verify_over_cap(capsys):
    code, _, err = run(capsys, "verify", "oeis", "--max-n", "12")
    assert code == 2
    assert "capped" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    real_invert = verify_mod.invert

    def broken_invert(t):
        return Permutation(tuple(reversed(real_invert(t).entries)))

    monkeypatch.setattr(verify_mod, "invert", broken_invert)
    code, out, _ = run(capsys, "verify", "bijection", "--max-n", "4")
    assert code == 1
    assert out.startswith("FAIL bijection")
    assert "counterexample" in out


# --- oeis -----------------------------------------------------------------------

def test_oeis_offline(capsys):
    code, out, _ = run(capsys, "oeis")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 1"
    assert lines[2] == "3 3"


def test_oeis_bad_id(capsys):
    code, _, err = run(capsys, "oeis", "--id", "B12")
    assert code == 2
    assert "six digits" in err


def test_oeis_json(capsys):
    code, out, _ = run(capsys, "oeis", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert entries[0] == {"index": 1, "value": "1"}


@pytest.mark.parametrize("fmt, expected", [
    ("plain", "1 {term}\n"),
    ("json", '[{{"index": 1, "value": "{term}"}}]\n'),
    ("csv", "index,value\r\n1,{term}\r\n"),
])
def test_oeis_prints_past_the_digit_limit(capsys, monkeypatch, fmt, expected):
    # 4301 digits, one more than int() and str() convert by default (3.10.7+)
    term = "7" * 4301
    monkeypatch.setattr(oeis_mod, "fetch_bfile", lambda *args, **kwargs: f"1 {term}\n")
    limit = _digit_limit()
    assert run(capsys, "oeis", "--format", fmt) == (0, expected.format(term=term), "")
    assert _digit_limit() == limit
    if limit is None:
        return
    # at the least limit Python allows: a 1000-digit value, then the same
    # number as the index too, which is the first "1" of each expected text
    term = "7" * 1000
    sys.set_int_max_str_digits(640)
    try:
        assert run(capsys, "oeis", "--format", fmt) == (0, expected.format(term=term), "")
        monkeypatch.setattr(oeis_mod, "fetch_bfile",
                            lambda *args, **kwargs: f"{term} {term}\n")
        assert run(capsys, "oeis", "--format", fmt) == (
            0, expected.replace("1", "{term}", 1).format(term=term), "")
    finally:
        sys.set_int_max_str_digits(limit)


# --- any argv ---------------------------------------------------------------------

SMALL_INTS = (-1, 0, 1, 2, 3, 4, 5, 6)
# one past the avoider, sequence and DP caps, and one far past every cap
EDGE_INTS = (AVOIDER_CAP + 1, SEQUENCE_CAP + 1, census_mod.DP_CAP + 1, 10**6)
TOKENS = ("", "x", "-", "1.5", "213", "1 3 2", "3 2 1", "2 1 3", "1 1 2", "1 1 1",
          "1 3 1", "A167995", "A000001")


def _ints(*extra):
    return st.sampled_from(tuple(map(str, SMALL_INTS + EDGE_INTS + extra)) + ("", "x", "1.5"))


def _caps(default):
    # never above the default: a larger cap admits cases that run for seconds
    return st.sampled_from([i for i in SMALL_INTS + EDGE_INTS if i <= default]).map(str)


@st.composite
def cli_argv(draw):
    """argv for any subcommand with any subset of its flags, in any order,
    from small and edge integers and short text; never --online."""
    formats = st.sampled_from(("plain", "json", "csv", "x"))
    texts = st.sampled_from(TOKENS)
    command = draw(st.sampled_from(("rank", "map", "avoiders", "sequences",
                                    "census", "verify", "oeis")))
    required = []
    if command in ("rank", "map"):
        positionals = [draw(texts)]
        flags = {"--invert" if command == "rank" else "--trace": None}
    elif command in ("avoiders", "sequences"):
        positionals = [draw(_ints())]
        flags = {"--format": formats, "--count": None,
                 "--cap": _caps(AVOIDER_CAP if command == "avoiders" else SEQUENCE_CAP)}
        if command == "avoiders":
            flags["--pattern"] = texts
    elif command == "census":
        positionals = []
        flags = {"--format": formats, "--max-n": _ints(),
                 "--engine": st.sampled_from(("dp", "enumerative", "x")),
                 # the smaller of the two engines' defaults
                 "--cap": _caps(min(SEQUENCE_CAP, census_mod.DP_CAP))}
        required = ["--max-n"]
    elif command == "verify":
        suite = draw(st.sampled_from(verify_mod.SUITE_NAMES + ("x",)))
        positionals = [suite]
        # always bounded, since the default bounds run for seconds; the oeis
        # suite alone has a cap (ALL_PERMUTATION_CAP) below the others
        extra = (ALL_PERMUTATION_CAP + 1,) if suite == "oeis" else ()
        flags = {"--format": formats, "--max-n": _ints(*extra)}
        required = ["--max-n"]
    else:
        positionals = []
        flags = {"--format": formats, "--id": texts, "--offline": None, "--cache-dir": texts}
    chosen = draw(st.lists(st.sampled_from(sorted(set(flags) - set(required))), unique=True))
    argv = [command, *positionals]
    for flag in required + chosen:
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    if draw(st.integers(0, 3)) == 0:  # now and then a stray token
        argv.append(draw(st.sampled_from(TOKENS + ("-h", "--bogus"))))
    return argv


def _run_captured(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_any_argv_exits_cleanly_and_deterministically(argv):
    code, out = _run_captured(argv)
    assert code in (0, 1, 2), argv
    assert _run_captured(argv) == (code, out), argv


def test_listing_into_a_closed_pipe_exits_quietly():
    # `ulisperm avoiders 12 | head -1`: the reader leaves after one line
    proc = subprocess.Popen([sys.executable, "-m", "ulisperm.cli", "avoiders", "12"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_child_env())
    assert proc.stdout.readline() == b"1 2 3 4 5 6 7 8 9 10 11 12\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


# --- README ----------------------------------------------------------------------

def _readme_examples():
    """Each `$ ulisperm ...` example of README's CLI block with the stdout
    lines it shows, trailing `# ...` comments stripped; examples that
    redirect to a file, go online or show no output are left out."""
    readme = Path(__file__).parents[1].joinpath("README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((shlex.split(line[2:], comments=True), []))
        else:
            examples[-1][1].append(line.split("#", 1)[0].rstrip())
    return [pytest.param(argv[1:], lines, id=" ".join(argv[1:]))
            for argv, lines in examples
            if lines and ">" not in argv and "--online" not in argv]


@pytest.mark.parametrize("argv, lines", _readme_examples())
def test_readme_transcript(capsys, argv, lines):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "".join(line + "\n" for line in lines))
