"""Exhaustive verification suites.

Every suite sweeps all objects of each length up to a bound and checks one
of the structural facts the library rests on, reporting either a pass with
summary counts or the first counterexample found (objects are visited in
lexicographic order, so the reported counterexample is the least one).  A
`ConstructionError` raised inside a suite, by a construction's own check of
its result (`invert`'s certificate, `uniquify_max`'s image check, the
enumerative census's count), ends the run as a failure too, with the error's
message as the counterexample.  The suites exist so the mathematical claims
stay claims about *this code*, not about intentions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable

from .census import census_enumerative, ulis_count_all
from .errors import SUITE_NAMES, ConstructionError, InputError
from .oeis import FIXTURE_ID, fixture_text, parse_bfile
from .permutations import (
    ALL_PERMUTATION_CAP,
    AVOIDER_CAP,
    enumerate_avoiders,
    has_ulis,
    start_lengths_counts,
)
from .ranks import (
    SEQUENCE_CAP,
    RankSequence,
    _generate_sequences,
    _lex_ranker,
    catalan,
    enumerate_rank_sequences,
    invert,
    rank_sequence,
)
from .ulis import _unique_max, uniquify_lis, uniquify_max


@dataclass
class RunReport:
    """One verification run: its parameters and how it came out.  The
    duration lives outside the deterministic payload so identical runs stay
    byte-identical on standard output."""

    parameters: dict[str, Any]
    outcome: dict[str, Any]
    duration_ms: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return self.outcome.get("status") == "pass"

    def to_payload(self) -> dict[str, Any]:
        return {"command": "verify", "parameters": self.parameters, "outcome": self.outcome}


def _fail(counterexample: dict[str, Any], **stats: Any) -> dict[str, Any]:
    return {"status": "fail", "counterexample": counterexample, **stats}


def _pass(**stats: Any) -> dict[str, Any]:
    return {"status": "pass", **stats}


def _suite_bijection(max_n: int) -> dict[str, Any]:
    """Both round trips of the rank map are identities.  From avoiders,
    `invert(rank_sequence(p))` must give p back; from rank sequences, the
    check is `invert`'s own certificate: the decode avoids 132 and has ranks
    t, or `ConstructionError` stops the run.  Each walk must also yield
    catalan(n) objects; it is cut after one more, so a walk that never ends
    fails too."""
    trips = 0
    for n in range(1, max_n + 1):
        expected = catalan(n)
        walked = 0
        for p in islice(enumerate_avoiders(n), expected + 1):
            t = rank_sequence(p)
            back = invert(t)
            trips += 1
            walked += 1
            if back != p:
                return _fail(
                    {"n": n, "permutation": str(p), "rank_sequence": str(t),
                     "reconstructed": str(back)},
                    round_trips=trips,
                )
        if walked != expected:
            return _fail({"n": n, "avoiders": walked, "catalan": expected},
                         round_trips=trips)
        walked = 0
        for t in islice(enumerate_rank_sequences(n), expected + 1):
            invert(t)
            trips += 1
            walked += 1
        if walked != expected:
            return _fail({"n": n, "sequences": walked, "catalan": expected},
                         round_trips=trips)
    return _pass(round_trips=trips)


def _suite_lemma1(max_n: int) -> dict[str, Any]:
    """Every entry of every 132-avoider starts exactly one maximal
    increasing subsequence."""
    permutations = 0
    entries = 0
    for n in range(1, max_n + 1):
        for p in enumerate_avoiders(n):
            permutations += 1
            _, counts = start_lengths_counts(p)
            entries += n
            for position, count in enumerate(counts, start=1):
                if count != 1:
                    return _fail(
                        {"n": n, "permutation": str(p), "position": position,
                         "count": count},
                        permutations=permutations,
                    )
    return _pass(permutations=permutations, entries=entries)


def _suite_injection_f(max_n: int) -> dict[str, Any]:
    """The tied-maximum bump is injective, and its images are valid
    sequences with a unique maximum (checked inside uniquify_max).

    Injectivity is checked per length with one flag per rank sequence of
    that length, `bytearray(catalan(n))`, indexed by the image's position in
    lexicographic order (`ranks._lex_ranker`).  Every image is a member of
    length n (uniquify_max validates it), and the ranker maps those members
    one to one onto 0..catalan(n) - 1, so two images share a flag exactly
    when they are equal.  No image is kept, and no bound on the values
    applies.  A passing run formats nothing.  Only on a collision is the
    length's domain walked again, to find the earliest input with the same
    image: enumeration is lexicographic and the suite stops at the first
    repeat, so that input is the one that set the flag.

    The domain is walked as the plain tuples of `ranks._generate_sequences`;
    only the tied inputs, the ones passed to `uniquify_max`, are wrapped
    (unvalidated, as members by construction, by `RankSequence._trusted`).
    """
    inputs = 0
    wrap = RankSequence._trusted
    for n in range(1, max_n + 1):
        rank = _lex_ranker(n)
        seen = bytearray(catalan(n))
        for values in _generate_sequences(n):
            if _unique_max(values):
                continue
            inputs += 1
            t = wrap(values)
            image = uniquify_max(t)
            position = rank(image.values)
            if seen[position]:
                first = next(s for s in enumerate_rank_sequences(n)
                             if not _unique_max(s.values)
                             and uniquify_max(s).values == image.values)
                return _fail(
                    {"n": n, "first": str(first), "second": str(t),
                     "image": str(image)},
                    inputs=inputs,
                )
            seen[position] = 1
    return _pass(inputs=inputs, distinct_images=inputs)


def _suite_injection_g(max_n: int) -> dict[str, Any]:
    """The composed map on avoiders lands in the unique-subsequence class
    injectively.  Each image is `invert`'s output, already certified to
    avoid 132; whether it has a unique longest increasing subsequence is
    checked by `has_ulis`, the independent Fenwick kernel.

    Injectivity is checked per length with a set of `bytes(image.entries)`
    keys, exact while every entry is below 256 (the hard cap is far lower).
    A set, not rank flags as in `_suite_injection_f`: at the default bound
    it holds at most v(10) = 7 979 keys, and ranking a permutation image
    would cost one more pass over its longest increasing subsequences.  The
    earliest preimage of a colliding image is found by a second walk of the
    length's domain, and only then.
    """
    domain = 0
    for n in range(1, max_n + 1):
        seen: set[bytes] = set()
        for p in enumerate_avoiders(n):
            if has_ulis(p):
                continue
            domain += 1
            image = uniquify_lis(p)
            if not has_ulis(image):
                return _fail(
                    {"n": n, "permutation": str(p), "image": str(image),
                     "reason": "image lacks a unique longest increasing subsequence"},
                    domain=domain,
                )
            key = bytes(image.entries)
            if key in seen:
                first = next(q for q in enumerate_avoiders(n)
                             if not has_ulis(q)
                             and uniquify_lis(q).entries == image.entries)
                return _fail(
                    {"n": n, "first": str(first), "second": str(p),
                     "image": str(image)},
                    domain=domain,
                )
            seen.add(key)
    return _pass(domain=domain, distinct_images=domain)


def _suite_characterization(max_n: int) -> dict[str, Any]:
    """A 132-avoider has a unique longest increasing subsequence exactly when
    its rank sequence has a unique maximum; the two resulting counts agree
    with the enumerative census."""
    permutations = 0
    for n in range(1, max_n + 1):
        with_unique = 0
        for p in enumerate_avoiders(n):
            permutations += 1
            direct = has_ulis(p)
            via_ranks = _unique_max(rank_sequence(p).values)
            if direct != via_ranks:
                return _fail(
                    {"n": n, "permutation": str(p), "has_ulis": direct,
                     "unique_max": via_ranks},
                    permutations=permutations,
                )
            with_unique += direct
        row = census_enumerative(n)
        if with_unique != row.u:
            return _fail(
                {"n": n, "avoider_count": with_unique, "census_u": row.u},
                permutations=permutations,
            )
    return _pass(permutations=permutations)


def _suite_catalan(max_n: int) -> dict[str, Any]:
    """Avoiders and rank sequences are both counted by the Catalan numbers.
    Each walk is cut after catalan(n) + 1 objects, so a walk that never
    ends fails its count."""
    checked = []
    for n in range(1, max_n + 1):
        expected = catalan(n)
        bound = expected + 1
        avoiders = sum(1 for _ in islice(enumerate_avoiders(n), bound))
        if avoiders != expected:
            return _fail({"n": n, "avoiders": avoiders, "catalan": expected})
        sequences = sum(1 for _ in islice(enumerate_rank_sequences(n), bound))
        if sequences != expected:
            return _fail({"n": n, "sequences": sequences, "catalan": expected})
        checked.append(expected)
    return _pass(lengths=max_n, counts=checked)


def _suite_oeis(max_n: int) -> dict[str, Any]:
    """Counts of all permutations with a unique longest increasing
    subsequence, from `ulis_count_all`'s suffix profiles, match the bundled
    A167995 data."""
    table = {entry.index: entry.value for entry in parse_bfile(fixture_text())}
    compared = 0
    for n in range(1, max_n + 1):
        if n not in table:
            return _fail({"n": n, "reason": f"missing from bundled {FIXTURE_ID}"})
        computed = ulis_count_all(n)
        if computed != table[n]:
            return _fail(
                {"n": n, "computed": computed, "fixture": table[n]},
                compared=compared,
            )
        compared += 1
    return _pass(compared=compared)


# name: (runner, default max_n, hard cap), named in the order of SUITE_NAMES
_SUITES: dict[str, tuple[Callable[[int], dict[str, Any]], int, int]] = dict(zip(SUITE_NAMES, (
    (_suite_bijection, 10, min(AVOIDER_CAP, SEQUENCE_CAP)),
    (_suite_lemma1, 9, AVOIDER_CAP),
    (_suite_injection_f, 12, SEQUENCE_CAP),
    (_suite_injection_g, 10, AVOIDER_CAP),
    (_suite_characterization, 10, AVOIDER_CAP),
    (_suite_catalan, 10, min(AVOIDER_CAP, SEQUENCE_CAP)),
    (_suite_oeis, 9, ALL_PERMUTATION_CAP),
), strict=True))


def run_suite(suite: str, max_n: int | None = None) -> RunReport:
    """Run one named suite up to `max_n` (its default bound if omitted).

    A `ConstructionError` inside the suite becomes a failing outcome whose
    counterexample is `{"error": message}`; enumeration is lexicographic and
    the first fault stops the run, so the message names the least failing
    object."""
    if suite not in _SUITES:
        raise InputError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    runner, default_max, cap = _SUITES[suite]
    bound = default_max if max_n is None else max_n
    if bound < 1:
        raise InputError(f"max_n must be at least 1, got {bound}")
    if bound > cap:
        raise InputError(f"suite {suite} is capped at max_n = {cap} (requested {bound})")
    started = time.perf_counter()
    try:
        outcome = runner(bound)
    except ConstructionError as exc:
        outcome = _fail({"error": str(exc)})
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return RunReport(
        parameters={"suite": suite, "max_n": bound},
        outcome=outcome,
        duration_ms=elapsed_ms,
    )
