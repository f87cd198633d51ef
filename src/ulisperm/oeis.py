"""Fetching and parsing OEIS b-files, with a bundled offline fixture.

A b-file is plain text, one "index value" pair per line; blank lines and
lines starting with '#' are ignored.  The package bundles a fixture for
A167995 (counts of permutations with a unique longest increasing
subsequence) so that test runs and default CLI invocations never touch the
network; live fetching is opt-in and falls back to the fixture, loudly, on
any failure.
"""

from __future__ import annotations

import os
import re
import tempfile
import warnings
from importlib import resources
from typing import Callable, NamedTuple

from .errors import InputError, _int_text, _text_int

FIXTURE_ID = "A167995"
CACHE_ENV_VAR = "ULISPERM_OEIS_CACHE_DIR"

_ID_PATTERN = re.compile(r"\AA[0-9]{6}\Z")


class FetchFallbackWarning(UserWarning):
    """A live fetch failed and the bundled fixture was served instead, or
    the fetched text was served but could not be cached."""


class BFileEntry(NamedTuple):
    index: int
    value: int


class BFileParseError(InputError):
    """Malformed b-file line; `line_number` is 1-based."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_bfile(text: str) -> list[BFileEntry]:
    """Parse b-file text into entries with strictly increasing indices.
    A token of plain ASCII digits is read exactly at any length; one with a
    sign or an underscore only within Python's int() digit limit.

    >>> parse_bfile("# header\\n1 1\\n2 1\\n")
    [BFileEntry(index=1, value=1), BFileEntry(index=2, value=1)]
    """
    entries: list[BFileEntry] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise BFileParseError(
                line_number, f"expected 'index value', got {stripped!r}"
            )
        try:
            index, value = _text_int(tokens[0]), _text_int(tokens[1])
        except ValueError:
            raise BFileParseError(
                line_number, f"non-integer token in {stripped!r}"
            ) from None
        if entries and index <= entries[-1].index:
            raise BFileParseError(
                line_number,
                f"index {_int_text(index)} does not increase past "
                f"{_int_text(entries[-1].index)}",
            )
        if value < 0:
            raise BFileParseError(line_number, f"negative value {_int_text(value)}")
        entries.append(BFileEntry(index, value))
    return entries


def fixture_text(sequence_id: str = FIXTURE_ID) -> str:
    """The bundled b-file text for `sequence_id`; only A167995 is shipped."""
    if sequence_id != FIXTURE_ID:
        raise InputError(f"no bundled fixture for {sequence_id}")
    return (
        resources.files(__package__)
        .joinpath(f"data/b{FIXTURE_ID[1:]}.txt")
        .read_text(encoding="utf-8")
    )


def bfile_url(sequence_id: str) -> str:
    return f"https://oeis.org/{sequence_id}/b{sequence_id[1:]}.txt"


def _http_get(url: str, timeout: float) -> str:
    # imported here: the HTTP stack (ssl, http.client) costs every other
    # command memory and start-up time, and only --online needs it
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def fetch_bfile(
    sequence_id: str,
    *,
    online: bool = False,
    cache_dir: str | None = None,
    timeout: float = 10.0,
    opener: Callable[[str, float], str] | None = None,
) -> str:
    """Return b-file text for `sequence_id`.

    Offline (the default) serves the bundled fixture.  With `online=True` the
    canonical OEIS b-file URL is fetched over HTTPS, consulting and filling
    an optional on-disk cache (`cache_dir` argument, or the directory named
    by the ULISPERM_OEIS_CACHE_DIR environment variable).  Text is parsed
    before it is cached or served; a cache file that cannot be read or does
    not parse counts as a miss, so it is fetched again and replaced.  Any
    failure to fetch or parse falls back to the bundled fixture with a
    FetchFallbackWarning; if there is no fixture for the id either, the
    failure propagates as InputError.  A failure to write the cache only
    warns: the fetched text is still served.

    `opener` exists for tests: a callable (url, timeout) -> text replacing
    the real HTTP client.
    """
    if not _ID_PATTERN.match(sequence_id):
        raise InputError(
            f"sequence id must be 'A' followed by six digits, got {sequence_id!r}"
        )
    if not online:
        return fixture_text(sequence_id)

    cache_path = _cache_path(sequence_id, cache_dir)
    text = _read_cache(cache_path)
    if text is not None:
        return text
    try:
        text = (opener or _http_get)(bfile_url(sequence_id), timeout)
        parse_bfile(text)
    except Exception as exc:
        if sequence_id == FIXTURE_ID:
            warnings.warn(
                f"fetch of {sequence_id} failed ({exc}); serving bundled fixture",
                FetchFallbackWarning,
                stacklevel=2,
            )
            return fixture_text(sequence_id)
        raise InputError(
            f"fetch of {sequence_id} failed and no fixture is bundled: {exc}"
        ) from exc

    if cache_path is not None:
        try:
            _write_atomically(cache_path, text)
        except OSError as exc:
            warnings.warn(
                f"caching {sequence_id} at {cache_path} failed ({exc}); "
                f"serving the fetched text uncached",
                FetchFallbackWarning,
                stacklevel=2,
            )
    return text


def _cache_path(sequence_id: str, cache_dir: str | None) -> str | None:
    directory = cache_dir if cache_dir is not None else os.environ.get(CACHE_ENV_VAR)
    if not directory:
        return None
    return os.path.join(directory, f"b{sequence_id[1:]}.txt")


def _read_cache(path: str | None) -> str | None:
    """The cached text, or None when there is no cache file or it cannot be
    read, decoded or parsed (a miss: the caller fetches and replaces it)."""
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        parse_bfile(text)
    except (OSError, UnicodeDecodeError, BFileParseError):
        return None
    return text


def _write_atomically(path: str, text: str) -> None:
    # Concurrent fetchers may race on the cache; a rename makes the final
    # write win without ever exposing a torn file.
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
