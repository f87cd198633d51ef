import os
import re
import subprocess
import sys
import threading

import pytest

from ulisperm import (
    BFileEntry,
    FetchFallbackWarning,
    InputError,
    fetch_bfile,
    fixture_text,
    parse_bfile,
    ulis_count_all,
)
from ulisperm.oeis import CACHE_ENV_VAR, BFileParseError, bfile_url

from oracles import _digit_limit


# --- parsing -----------------------------------------------------------------

def test_parse_basic():
    assert parse_bfile("1 1\n2 1\n") == [BFileEntry(1, 1), BFileEntry(2, 1)]


def test_parse_skips_comments_and_blanks():
    assert parse_bfile("# comment\n\n3 3\n") == [BFileEntry(3, 3)]


def test_parse_rejects_non_integer_with_line_number():
    with pytest.raises(BFileParseError, match="line 2"):
        parse_bfile("1 1\n2 x\n")


def test_parse_rejects_wrong_token_count():
    with pytest.raises(BFileParseError, match="line 1"):
        parse_bfile("1 2 3\n")


def test_parse_rejects_non_monotonic():
    with pytest.raises(BFileParseError, match="line 3") as exc:
        parse_bfile("1 1\n5 2\n4 3\n")
    assert exc.value.line_number == 3


def test_parse_rejects_negative_value():
    with pytest.raises(BFileParseError, match="negative"):
        parse_bfile("1 -4\n")


# 4301 digits, one more than int() converts by default (Python 3.10.7+)
LONG_DIGITS = "1" * 4301
LONG_VALUE = (10 ** 4301 - 1) // 9


def test_parse_reads_values_past_the_digit_limit():
    limit = _digit_limit()
    assert parse_bfile(f"1 {LONG_DIGITS}") == [BFileEntry(1, LONG_VALUE)]
    assert parse_bfile(f"{LONG_DIGITS} 1") == [BFileEntry(LONG_VALUE, 1)]
    assert _digit_limit() == limit
    if limit is None:
        return
    # at the least limit Python allows, 1000-digit tokens are read exactly and
    # quoted exactly in errors
    digits, number = "2" * 1000, (10 ** 1000 - 1) // 9 * 2
    sys.set_int_max_str_digits(640)
    try:
        assert parse_bfile(f"{digits} {digits}") == [BFileEntry(number, number)]
        with pytest.raises(BFileParseError, match=f"index {digits} does not increase"):
            parse_bfile(f"{digits} 1\n{digits} 2")
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_past_the_digit_limit_from_many_threads():
    # parses overlapping in eight threads each read the long value exactly
    # and leave the limit as it was; the short lines first give the threads
    # room to interleave
    limit = _digit_limit()
    if limit is None:
        pytest.skip("this Python has no int-to-str digit limit")
    text = "".join(f"{i} {i}\n" for i in range(1, 1000)) + f"1000 {LONG_DIGITS}"
    failures = []

    def parse_many():
        for _ in range(20):
            try:
                if parse_bfile(text)[-1].value != LONG_VALUE:
                    failures.append("wrong value")
            except BFileParseError as exc:
                failures.append(str(exc)[:40])

    threads = [threading.Thread(target=parse_many) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert _digit_limit() == limit


# --- the bundled fixture --------------------------------------------------------

def test_fixture_parses_totally():
    entries = parse_bfile(fixture_text())
    assert [e.index for e in entries] == list(range(1, len(entries) + 1))
    assert len(entries) >= 10


def test_count_matches_every_bundled_term():
    table = {e.index: e.value for e in parse_bfile(fixture_text())}
    assert list(table) == list(range(1, 13))
    assert {n: ulis_count_all(n, cap=12) for n in table} == table


# --- fetching --------------------------------------------------------------------

def test_fetch_offline_serves_fixture():
    assert fetch_bfile("A167995") == fixture_text()


def test_fetch_rejects_bad_ids():
    calls = []
    # the last id has Arabic-Indic digits, which a Unicode \d would accept
    for bad in ("B12", "A123", "A1234567", "a167995", "167995",
                "A\u0661\u0666\u0667\u0669\u0669\u0665"):
        with pytest.raises(InputError, match="six digits"):
            fetch_bfile(bad)
        with pytest.raises(InputError, match="six digits"):
            fetch_bfile(bad, online=True, opener=lambda url, timeout: calls.append(url))
    assert calls == []


def test_fetch_offline_unknown_id():
    with pytest.raises(InputError, match="no bundled fixture"):
        fetch_bfile("A000001")


def test_url_scheme():
    assert bfile_url("A167995") == "https://oeis.org/A167995/b167995.txt"


def test_fetch_online_uses_opener_and_cache(tmp_path):
    calls = []

    def opener(url, timeout):
        calls.append(url)
        return "1 1\n2 1\n"

    text = fetch_bfile("A167995", online=True, cache_dir=str(tmp_path), opener=opener)
    assert text == "1 1\n2 1\n"
    assert calls == [bfile_url("A167995")]
    assert (tmp_path / "b167995.txt").read_text() == text

    again = fetch_bfile("A167995", online=True, cache_dir=str(tmp_path), opener=opener)
    assert again == text
    assert len(calls) == 1  # cache hit, no second fetch


def test_fetch_online_falls_back_with_warning():
    def opener(url, timeout):
        raise OSError("no route to host")

    with pytest.warns(FetchFallbackWarning, match="bundled fixture"):
        text = fetch_bfile("A167995", online=True, opener=opener)
    assert text == fixture_text()


def test_fetch_online_failure_without_fixture():
    def opener(url, timeout):
        raise OSError("no route to host")

    with pytest.raises(InputError, match="no fixture"):
        fetch_bfile("A000001", online=True, opener=opener)


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))

    def opener(url, timeout):
        return "1 7\n"

    fetch_bfile("A167995", online=True, opener=opener)
    assert (tmp_path / "b167995.txt").read_text() == "1 7\n"
    assert os.listdir(tmp_path) == ["b167995.txt"]  # no leftover temp files


def test_malformed_response_is_neither_served_nor_cached(tmp_path):
    def html(url, timeout):
        return "<html><body>Service unavailable</body></html>\n"

    def good(url, timeout):
        return "1 1\n2 1\n"

    with pytest.warns(FetchFallbackWarning, match="bundled fixture"):
        text = fetch_bfile("A167995", online=True, cache_dir=str(tmp_path), opener=html)
    assert text == fixture_text()
    assert os.listdir(tmp_path) == []

    # the next fetch is not shadowed by the bad response
    assert fetch_bfile("A167995", online=True, cache_dir=str(tmp_path), opener=good) == good("", 0)
    assert (tmp_path / "b167995.txt").read_text() == good("", 0)


def test_malformed_response_without_fixture(tmp_path):
    def html(url, timeout):
        return "<html></html>\n"

    with pytest.raises(InputError, match="no fixture"):
        fetch_bfile("A000001", online=True, cache_dir=str(tmp_path), opener=html)
    assert os.listdir(tmp_path) == []


def test_unparsable_cache_is_fetched_again_and_replaced(tmp_path):
    (tmp_path / "b167995.txt").write_text("<html>cached error page</html>\n")
    calls = []

    def opener(url, timeout):
        calls.append(url)
        return "1 1\n"

    text = fetch_bfile("A167995", online=True, cache_dir=str(tmp_path), opener=opener)
    assert text == "1 1\n"
    assert calls == [bfile_url("A167995")]
    assert (tmp_path / "b167995.txt").read_text() == "1 1\n"
    assert os.listdir(tmp_path) == ["b167995.txt"]


def test_unparsable_cache_and_failed_fetch_serve_fixture(tmp_path):
    (tmp_path / "b167995.txt").write_text("<html>cached error page</html>\n")

    def opener(url, timeout):
        raise OSError("no route to host")

    with pytest.warns(FetchFallbackWarning, match="no route to host"):
        text = fetch_bfile("A167995", online=True, cache_dir=str(tmp_path), opener=opener)
    assert text == fixture_text()
    (tmp_path / "b000001.txt").write_text("<html></html>\n")
    with pytest.raises(InputError, match="no fixture"):
        fetch_bfile("A000001", online=True, cache_dir=str(tmp_path), opener=opener)


def test_undecodable_cache_is_a_miss(tmp_path):
    (tmp_path / "b167995.txt").write_bytes(b"\xff\xfe\x00junk")
    text = fetch_bfile("A167995", online=True, cache_dir=str(tmp_path),
                       opener=lambda url, timeout: "1 1\n")
    assert text == (tmp_path / "b167995.txt").read_text() == "1 1\n"


def test_unreadable_cache_is_a_miss(tmp_path):
    # a directory where the cache file belongs: reading and writing both fail
    (tmp_path / "b167995.txt").mkdir()
    calls = []

    def opener(url, timeout):
        calls.append(url)
        return "1 1\n"

    with pytest.warns(FetchFallbackWarning, match="caching A167995"):
        text = fetch_bfile("A167995", online=True, cache_dir=str(tmp_path), opener=opener)
    assert text == "1 1\n"
    assert calls == [bfile_url("A167995")]


def test_failed_cache_write_warns_and_serves_fetched_text(tmp_path):
    not_a_directory = tmp_path / "cache"
    not_a_directory.write_text("a file, not a directory\n")

    with pytest.warns(FetchFallbackWarning, match=re.escape(str(not_a_directory))):
        text = fetch_bfile("A167995", online=True, cache_dir=str(not_a_directory),
                           opener=lambda url, timeout: "1 1\n2 1\n")
    assert text == "1 1\n2 1\n"
    assert not_a_directory.read_text() == "a file, not a directory\n"


# Run in a fresh interpreter: what `rank "2 1"` loads beyond what the
# interpreter held before (its `site` may load tempfile and
# importlib.resources itself), the package modules that ran (`import
# ulisperm` registers every submodule but runs one only on first use), then
# the exit codes of the commands that load the rest.
_START_PROBE = """
import contextlib, io, sys, types
before = set(sys.modules)
import ulisperm.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert ulisperm.cli.main(["rank", "2 1"]) == 0
print(*sorted(set(sys.modules) - before))
print(*sorted(name for name, module in sys.modules.items()
              if name.split(".")[0] == "ulisperm" and type(module) is types.ModuleType))
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [ulisperm.cli.main(argv) for argv in (
        ["census", "--max-n", "5"], ["verify", "oeis", "--max-n", "4"],
        ["verify", "bijection", "--max-n", "4"], ["oeis"])]
print(codes)
"""


def test_cli_import_leaves_http_stack_unloaded(child_env):
    # only `oeis --online` needs urllib.request and ssl; they load on first
    # use, and so does every module `rank` does not run
    out = subprocess.run([sys.executable, "-c", _START_PROBE], env=child_env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    loaded_text, ran, codes = out.splitlines()
    loaded = set(loaded_text.split())
    assert set(ran.split()) == {
        "ulisperm", "ulisperm.cli", "ulisperm.errors", "ulisperm.permutations"}
    assert loaded.isdisjoint({"urllib.request", "ssl", "fractions", "decimal",
                              "tempfile", "importlib.resources"})
    assert codes == "[0, 0, 0, 0]"
