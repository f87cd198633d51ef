"""Exhaustive verification suites.

Every suite sweeps all objects of each length up to a bound and checks one
of the structural facts the library rests on, reporting either a pass with
summary counts or the first counterexample found (objects are visited in
lexicographic order, so the reported counterexample is the least one).  A
`ConstructionError` raised inside a suite, by a construction's own check of
its result (`invert`'s certificate, the bump's image check, a Catalan
walk's check of its own length), ends the run as a failure too, with the
error's message as the counterexample.  The suites exist so the mathematical
claims stay claims about *this code*, not about intentions.

Every suite but `catalan` walks the plain tuples of the private walks
(`permutations._generate_avoiders`, `ranks._generate_sequences`) and checks
them with the tuple twins of the public kernels, each of which is the body
of its public function (`_start_ranks`, `_start_lengths_counts`,
`_has_ulis`, `ranks._decode`, `ulis._bump`, `ulis._stages`): a passing run
wraps no `Permutation` or `RankSequence`, and a failing one formats its
counterexample with `format_values`.  `catalan` drains the public
enumerators, since its claim is about what they yield.  A passing
`bijection` run calls only `ranks._decode`, once per rank sequence:
decoding reverses lexicographic order, so the avoider walk must give back
the decodes in reverse, and `_start_ranks` and `validate_values` run only
on a length that check cannot confirm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Any, Callable

from .census import census_enumerative, census_rows_dp, ulis_count_all
from .errors import SUITE_NAMES, ConstructionError, InputError
from .oeis import FIXTURE_ID, fixture_text, parse_bfile
from .permutations import (
    ALL_PERMUTATION_CAP,
    AVOIDER_CAP,
    PATTERN_132,
    _generate_avoiders,
    _has_ulis,
    _start_lengths_counts,
    _start_ranks,
    enumerate_avoiders,
    format_values,
)
from .ranks import (
    SEQUENCE_CAP,
    _decode,
    _generate_sequences,
    catalan,
    enumerate_rank_sequences,
    validate_values,
)
from .ulis import _bump, _restore_max, _stages, _unique_max

_SIG = PATTERN_132.entries


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
    """Both round trips of the rank map are identities, confirmed for each
    length by one pass over each family (`_confirm_by_reversal`).

    Decoding reverses lexicographic order: where two avoiders first differ,
    the smaller entry has more larger values to its right, so it has the
    larger rank, and the ranks before that position agree.  So the k-th
    avoider must be the decode of the k-th rank sequence from the end.
    Each rank sequence is decoded once, by `ranks._decode` (`invert`'s
    body), whose certificate checks that the decode avoids 132 and has
    ranks t; then the avoider walk must give back the decodes in reverse.
    Together they prove both trips: one trip per decode, one per matched
    avoider.

    A length the pass cannot confirm is walked again object by object
    (`_walk_bijection`), which decides the outcome, so a failing run
    reports what the per-object walk finds first."""
    trips = 0
    for n in range(1, max_n + 1):
        confirmed = _confirm_by_reversal(n)
        if confirmed is not None:
            trips += confirmed
            continue
        trips, fault = _walk_bijection(n, trips)
        if fault is not None:
            return fault
    return _pass(round_trips=trips)


def _confirm_by_reversal(n: int) -> int | None:
    """The round trips one pass over each family of length n confirms, or
    None if it confirms none: a decode raises `ConstructionError` (so does
    a walk that miscounts), an avoider is not the decode it meets from the
    end, or decodes are left over.  The decodes are kept as n bytes each,
    exact while every entry is below 256 (the cap is far lower); the store
    of length 10 holds 168 kB."""
    store = bytearray()
    extend = store.extend
    decodes = 0
    try:
        for t in _generate_sequences(n):
            extend(_decode(t))
            decodes += 1
        for e in _generate_avoiders(n, _SIG):
            if store[-n:] != bytes(e):
                return None
            del store[-n:]
    except ConstructionError:
        return None
    # each certified decode has length n, so an empty store matched each once
    return None if store else 2 * decodes


def _walk_bijection(n: int, trips: int) -> tuple[int, dict[str, Any] | None]:
    """The per-object walk of length n, from the `trips` of the lengths
    before it: the trips after it and its failing outcome, or None.  From
    avoiders, the ranks of p (`_start_ranks`, validated as a member of the
    family, as `rank_sequence` does) must decode to p again; then each rank
    sequence is decoded, its certificate checked.  A `ConstructionError`
    propagates and ends the run."""
    for e in _generate_avoiders(n, _SIG):
        t = _start_ranks(e)
        validate_values(t)
        back = _decode(t)
        trips += 1
        if back != e:
            return trips, _fail(
                {"n": n, "permutation": format_values(e), "rank_sequence": format_values(t),
                 "reconstructed": format_values(back)},
                round_trips=trips,
            )
    for t in _generate_sequences(n):
        _decode(t)
        trips += 1
    return trips, None


def _suite_lemma1(max_n: int) -> dict[str, Any]:
    """Every entry of every 132-avoider starts exactly one maximal
    increasing subsequence: `_start_lengths_counts` on the plain entries."""
    permutations = 0
    entries = 0
    for n in range(1, max_n + 1):
        for e in _generate_avoiders(n, _SIG):
            permutations += 1
            _, counts = _start_lengths_counts(e)
            entries += n
            for position, count in enumerate(counts, start=1):
                if count != 1:
                    return _fail(
                        {"n": n, "permutation": format_values(e), "position": position,
                         "count": count},
                        permutations=permutations,
                    )
    return _pass(permutations=permutations, entries=entries)


def _suite_injection_f(max_n: int) -> dict[str, Any]:
    """The tied-maximum bump is injective, and its images are valid
    sequences with a unique maximum (checked inside `ulis._bump`).

    Injectivity is checked as the paper proves it: the image determines the
    input.  `ulis._restore_max`, the bump's left inverse, must give each
    tied input back from its image; no image is kept, and a passing run
    formats nothing.  The first input whose round trip fails is the least
    one.  Only then are the earlier inputs of its length walked again: the
    first with the same image makes a collision, and without one the
    payload names the input, its image and what was restored.

    The domain is walked as the plain tuples of `ranks._generate_sequences`.
    `ulis._bump`, `uniquify_max`'s body, both classifies each one (None on
    a unique maximum) and bumps the tied ones, so each input is classified
    once; the image is restored as a plain tuple.  A passing run builds no
    `RankSequence`, and each image is validated once, inside `_bump`.
    """
    inputs = 0
    for n in range(1, max_n + 1):
        for values in _generate_sequences(n):
            image = _bump(values)
            if image is None:
                continue
            inputs += 1
            restored = _restore_max(image)
            if restored != values:
                earlier = takewhile(lambda s: s != values, _generate_sequences(n))
                first = next((s for s in earlier if _bump(s) == image), None)
                if first is not None:
                    fault = {"n": n, "first": format_values(first),
                             "second": format_values(values), "image": format_values(image)}
                else:
                    fault = {"n": n, "sequence": format_values(values),
                             "image": format_values(image), "restored":
                             None if restored is None else format_values(restored)}
                return _fail(fault, inputs=inputs)
    return _pass(inputs=inputs, distinct_images=inputs)


def _suite_injection_g(max_n: int) -> dict[str, Any]:
    """The composed map on avoiders lands in the unique-subsequence class
    injectively.  Each image is the last stage of `ulis._stages`
    (`uniquify_stages`' body), the decode that `ranks._decode` certified to
    avoid 132; whether it has a unique longest increasing subsequence is
    checked by `_has_ulis`, the independent Fenwick kernel.

    Injectivity is checked per length with a set of `bytes(image)` keys,
    exact while every entry is below 256 (the hard cap is far lower).  At
    the default bound the set holds at most v(10) = 7 979 keys.  The
    earliest preimage of a colliding image is found by a second walk of the
    length's domain, and only then.
    """
    domain = 0
    for n in range(1, max_n + 1):
        seen: set[bytes] = set()
        for e in _generate_avoiders(n, _SIG):
            if _has_ulis(e):
                continue
            domain += 1
            image = _stages(e)[2]
            if not _has_ulis(image):
                return _fail(
                    {"n": n, "permutation": format_values(e), "image": format_values(image),
                     "reason": "image lacks a unique longest increasing subsequence"},
                    domain=domain,
                )
            key = bytes(image)
            if key in seen:
                first = next(q for q in _generate_avoiders(n, _SIG)
                             if not _has_ulis(q) and _stages(q)[2] == image)
                return _fail(
                    {"n": n, "first": format_values(first), "second": format_values(e),
                     "image": format_values(image)},
                    domain=domain,
                )
            seen.add(key)
    return _pass(domain=domain, distinct_images=domain)


def _suite_characterization(max_n: int) -> dict[str, Any]:
    """A 132-avoider has a unique longest increasing subsequence exactly when
    its rank sequence has a unique maximum; the resulting count agrees with
    the enumerative census and with u(n) of the closed form (one
    `census_rows_dp` call per run).  Both sides read the plain entries:
    `_has_ulis` by the Fenwick kernel, `_start_ranks` by the 132 sweep."""
    dp_u = [row.u for row in census_rows_dp(max_n)]
    permutations = 0
    for n in range(1, max_n + 1):
        with_unique = 0
        for e in _generate_avoiders(n, _SIG):
            permutations += 1
            direct = _has_ulis(e)
            via_ranks = _unique_max(_start_ranks(e))
            if direct != via_ranks:
                return _fail(
                    {"n": n, "permutation": format_values(e), "has_ulis": direct,
                     "unique_max": via_ranks},
                    permutations=permutations,
                )
            with_unique += direct
        for engine, u in (("census_u", census_enumerative(n).u), ("dp_u", dp_u[n - 1])):
            if with_unique != u:
                return _fail({"n": n, "avoider_count": with_unique, engine: u},
                             permutations=permutations)
    return _pass(permutations=permutations)


def _suite_catalan(max_n: int) -> dict[str, Any]:
    """Avoiders and rank sequences are both counted by the Catalan numbers.
    Each walk certifies its own length: one that yields other than
    catalan(n) objects raises `ConstructionError`, so the suite passes once
    both walks of every length end.  The walks are drained through the
    public enumerators, objects and all: the claim is about what they
    yield."""
    for n in range(1, max_n + 1):
        for walk in (enumerate_avoiders(n), enumerate_rank_sequences(n)):
            for _ in walk:
                pass
    return _pass(lengths=max_n, counts=[catalan(n) for n in range(1, max_n + 1)])


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
