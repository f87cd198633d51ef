import itertools
import math

import pytest
from hypothesis import given, strategies as st

from ulisperm import (
    InputError,
    PATTERN_132,
    PatternVerdict,
    Permutation,
    RankSequence,
    SequenceValidationError,
    catalan,
    contains_pattern,
    enumerate_avoiders,
    enumerate_rank_sequences,
    has_ulis,
    invert,
    lis_stats,
    rank_sequence,
    start_ranks,
)
from ulisperm import permutations as permutations_mod
from ulisperm.permutations import parse_values

from oracles import (
    avoiders_by_filter,
    contains_by_scan,
    contains_by_triples,
    lis_by_subsets,
    start_lengths_counts_by_scan,
)

ALL_SIGS = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
SIG_132 = PATTERN_132.entries


@st.composite
def permutations_st(draw, min_n=0, max_n=12):
    n = draw(st.integers(min_n, max_n))
    return Permutation(tuple(draw(st.permutations(tuple(range(1, n + 1))))))


@st.composite
def avoiders_st(draw, max_n=80):
    """132-avoiders from `invert` of random rank sequences."""
    n = draw(st.integers(1, max_n))
    ranks = [1]  # right to left: each rank at most one above the next
    for step in draw(st.lists(st.integers(1, n), min_size=n - 1, max_size=n - 1)):
        ranks.append(min(step, ranks[-1] + 1))
    return invert(RankSequence(tuple(reversed(ranks))))


@st.composite
def long_permutations_st(draw, max_n=80):
    """Random permutations, and 132-avoiders with their reverse, complement
    and both, which avoid 231, 312 and 213: inputs that a pattern test reads
    to the end without a witness."""
    if draw(st.booleans()):
        n = draw(st.integers(1, max_n))
        return Permutation(tuple(draw(st.permutations(tuple(range(1, n + 1))))))
    entries = draw(avoiders_st(max_n)).entries
    n = len(entries)
    if draw(st.booleans()):
        entries = entries[::-1]
    if draw(st.booleans()):
        entries = tuple(n + 1 - v for v in entries)
    return Permutation(entries)


def perm(text):
    return Permutation.from_text(text)


# --- construction and text form -------------------------------------------

def test_parse_spaced_and_compact():
    assert parse_values("3 4 2 5 6 1 7 8") == (3, 4, 2, 5, 6, 1, 7, 8)
    assert parse_values("34256178") == (3, 4, 2, 5, 6, 1, 7, 8)
    assert parse_values("7") == (7,)
    assert parse_values("10") == (10,)  # not compact: contains a 0
    assert parse_values("1 -1") == (1, -1)  # left to the membership check
    assert parse_values("2\u30001\t3\n") == (2, 1, 3)


def test_parse_rejects_junk():
    with pytest.raises(InputError):
        parse_values("1 two 3")


# forms that `int` reads but `format_values` never writes: a plus sign,
# digit-group underscores and non-ASCII digits
@pytest.mark.parametrize("token", ["+2", "1_1", "\uff12", "\u0662"])
def test_parse_takes_only_ascii_integer_tokens(token):
    with pytest.raises(InputError, match="not an integer sequence"):
        parse_values(f"1 {token}")
    with pytest.raises(InputError, match="not an integer sequence"):
        parse_values(token)


def test_permutation_validates_entries():
    with pytest.raises(InputError):
        Permutation((1, 1, 2))
    with pytest.raises(InputError):
        Permutation((2, 3, 4))
    assert Permutation(()).n == 0


def test_text_round_trip():
    p = perm("3 4 2 5 6 1 7 8")
    assert Permutation.from_text(str(p)) == p


@pytest.mark.parametrize("cls, entries, position", [
    (Permutation, (1.0, 2.0), 1),
    (Permutation, (2, "1"), 2),
    (RankSequence, (1.5, 1), 1),
    (RankSequence, (2, 2, 1.0), 3),
    (RankSequence, (1, None), 2),
    (Permutation, 5, None),
    (RankSequence, 5, None),
])
def test_constructors_refuse_non_integer_entries(cls, entries, position):
    # a float equal to an int is refused too: a construction holds exact ints
    with pytest.raises(InputError) as caught:
        cls(entries)
    if cls is RankSequence and position is not None:
        assert (caught.value.condition, caught.value.position) == ("integer", position)
        assert str(caught.value) == (
            f"entry {entries[position - 1]!r} at position {position} is not an integer")
    else:
        assert str(caught.value) == f"not an integer sequence: {entries!r}"


def test_constructors_store_exact_ints():
    # bools, like any integer with __index__, become plain ints
    p, t = Permutation([2, True]), RankSequence((True,))
    assert (p.entries, t.values) == ((2, 1), (1,))
    assert {type(v) for v in p.entries + t.values} == {int}


# --- pattern containment ----------------------------------------------------

def test_pattern_contains_itself():
    verdict = contains_pattern(PATTERN_132)
    assert verdict.contains and verdict.witness == (1, 2, 3)


def test_long_example_avoids_132():
    assert not contains_pattern(perm("34256178")).contains


def test_witness_is_lex_least():
    verdict = contains_pattern(perm("2413"))
    assert verdict.contains and verdict.witness == (1, 2, 4)


def test_verdict_carries_an_avoiders_ranks():
    # `rank` prints them: they come from the verdict's sweep, but are no part
    # of the verdict's value
    avoider = contains_pattern(perm("34256178"))
    assert avoider.ranks == (6, 5, 5, 4, 3, 3, 2, 1)
    assert avoider == PatternVerdict(False) and "ranks" not in repr(avoider)
    assert contains_pattern(perm("2413")).ranks is None


@given(permutations_st(max_n=40))
def test_containment_matches_triple_scan(p):
    verdict = contains_pattern(p)
    expected = contains_by_triples(p.entries, SIG_132)
    assert verdict.contains == (expected is not None)
    assert verdict.witness == expected


def test_containment_matches_triple_scan_exhaustively():
    for n in range(7):
        for entries in itertools.permutations(range(1, n + 1)):
            expected = contains_by_triples(entries, SIG_132)
            assert contains_pattern(Permutation(entries)) == PatternVerdict(
                expected is not None, expected), entries


def test_scan_oracle_matches_triple_scan():
    for n in range(7):
        for entries in itertools.permutations(range(1, n + 1)):
            for sig in ALL_SIGS:
                assert contains_by_scan(entries, sig) == contains_by_triples(entries, sig)


def test_containment_matches_scan_oracle_at_n_7():
    for entries in itertools.permutations(range(1, 8)):
        expected = contains_by_scan(entries, SIG_132)
        assert contains_pattern(Permutation(entries)) == PatternVerdict(
            expected is not None, expected), entries


@given(long_permutations_st())
def test_containment_matches_scan_oracle(p):
    expected = contains_by_scan(p.entries, SIG_132)
    assert contains_pattern(p) == PatternVerdict(expected is not None, expected)


def test_containment_worst_cases_at_n_1000():
    # the one start is near the end: the oracle's scan passes over every
    # suffix, the sweep reads each entry once
    yes = Permutation(tuple(range(1000, 3, -1)) + (1, 3, 2))
    assert contains_pattern(yes) == PatternVerdict(True, (998, 999, 1000))
    reversed_identity = Permutation(tuple(range(1000, 0, -1)))
    assert contains_pattern(reversed_identity) == PatternVerdict(False)


@given(permutations_st(min_n=3, max_n=10))
def test_witness_is_order_isomorphic(p):
    verdict = contains_pattern(p)
    if verdict.contains:
        i, j, k = verdict.witness
        assert i < j < k
        triple = (p.entries[i - 1], p.entries[j - 1], p.entries[k - 1])
        order = tuple(sorted(triple).index(x) + 1 for x in triple)
        assert order == SIG_132


# --- longest increasing subsequences ----------------------------------------

def test_lis_stats_worked_examples():
    assert lis_stats(perm("34256178")) == (6, 1)
    assert lis_stats(perm("32456178")) == (6, 2)


def test_lis_stats_decreasing():
    assert lis_stats(perm("4321")) == (1, 4)


def test_lis_stats_empty():
    assert lis_stats(Permutation(())) == (0, 1)


def test_lis_stats_matches_subset_enumeration():
    for n in range(7):
        for entries in itertools.permutations(range(1, n + 1)):
            p = Permutation(entries)
            assert lis_stats(p) == lis_by_subsets(entries), entries


@given(long_permutations_st())
def test_lis_stats_matches_start_lengths_counts(p):
    # `lis_stats` reads the Fenwick tree's root, not the per-position lists:
    # the longest start length, and the counts summed where it is attained
    lengths, counts = permutations_mod.start_lengths_counts(p)
    longest = max(lengths)
    assert lis_stats(p) == (longest, sum(c for l, c in zip(lengths, counts) if l == longest))


def test_start_lengths_counts_match_scan_oracle_exhaustively():
    for n in range(8):
        for entries in itertools.permutations(range(1, n + 1)):
            got = permutations_mod.start_lengths_counts(Permutation(entries))
            assert got == start_lengths_counts_by_scan(entries), entries


@given(long_permutations_st())
def test_start_lengths_counts_match_scan_oracle(p):
    assert permutations_mod.start_lengths_counts(p) == start_lengths_counts_by_scan(p.entries)


def test_has_ulis_examples():
    assert has_ulis(perm("34256178"))
    assert not has_ulis(perm("32456178"))
    assert has_ulis(perm("1 2 3 4 5 6 7"))
    assert has_ulis(Permutation(()))


def test_start_ranks_examples():
    assert start_ranks(perm("213")) == (2, 2, 1)
    assert start_ranks(perm("321")) == (1, 1, 1)
    assert start_ranks(perm("123")) == (3, 2, 1)


# --- the 132 sweep and its ranks ----------------------------------------------

def check_sweep(entries):
    """`_sweep_132` gives the least 132 of the scan oracle, or, on an
    avoider, the start lengths of the Fenwick kernel; `start_ranks` equals
    the kernel's lengths on every input."""
    lengths, _ = permutations_mod.start_lengths_counts(Permutation(entries))
    witness = contains_by_scan(entries, (1, 3, 2))
    expected = (None, tuple(lengths)) if witness is None else (witness, None)
    assert permutations_mod._sweep_132(entries) == expected, entries
    assert start_ranks(Permutation(entries)) == tuple(lengths), entries


def test_sweep_matches_oracles_exhaustively():
    for n in range(9):
        for entries in itertools.permutations(range(1, n + 1)):
            check_sweep(entries)


def test_sweep_ranks_match_kernel_on_avoiders():
    avoiders = 0
    for n in range(1, 11):
        for p in enumerate_avoiders(n):
            avoiders += 1
            lengths, _ = permutations_mod.start_lengths_counts(p)
            assert permutations_mod._sweep_132(p.entries) == (None, tuple(lengths)), p
    assert avoiders == 23713


@given(st.one_of(avoiders_st(max_n=200), long_permutations_st(max_n=200)))
def test_sweep_matches_oracles(p):
    check_sweep(p.entries)


# --- avoider enumeration ------------------------------------------------------

def test_avoiders_length_3():
    got = [str(p) for p in enumerate_avoiders(3)]
    assert got == ["1 2 3", "2 1 3", "2 3 1", "3 1 2", "3 2 1"]


def test_avoiders_length_0():
    assert list(enumerate_avoiders(0)) == [Permutation(())]


def test_avoiders_length_4_count():
    assert sum(1 for _ in enumerate_avoiders(4)) == 14


def test_avoiders_cap():
    with pytest.raises(InputError, match="capped"):
        list(enumerate_avoiders(13))
    assert sum(1 for _ in enumerate_avoiders(4, cap=4)) == 14


def _check_against_filter(sig, n):
    got = [p.entries for p in enumerate_avoiders(n, Permutation(sig))]
    assert got == sorted(got), "not lexicographic"
    assert got == avoiders_by_filter(n, sig)


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_avoiders_match_filter_oracle(sig):
    for n in range(8):
        _check_against_filter(sig, n)


@pytest.mark.slow
@pytest.mark.parametrize("sig", ALL_SIGS)
def test_avoiders_match_filter_oracle_at_n_8(sig):
    _check_against_filter(sig, 8)


def test_avoiders_are_the_inverted_rank_sequences():
    # completeness and order at a size the n! filter cannot reach: invert
    # reverses order, so rank sequences in reverse lexicographic order give
    # the avoiders in lexicographic order
    sequences = itertools.islice(enumerate_rank_sequences(10), catalan(10) + 1)
    expected = [invert(t).entries for t in sequences][::-1]
    assert [p.entries for p in enumerate_avoiders(10)] == expected


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_avoiders_are_complete_past_the_filter(sig):
    # strictly increasing, so distinct; catalan(n) of them, each avoiding the
    # pattern: together exactly the avoiders, at sizes the n! filter cannot
    # reach
    pattern = Permutation(sig)
    for n in range(11):
        got = list(enumerate_avoiders(n, pattern))
        entries = [p.entries for p in got]
        assert all(a < b for a, b in zip(entries, entries[1:])), n
        assert len(got) == catalan(n), n
        assert not any(contains_by_scan(e, sig) for e in entries), n


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_avoider_search_has_no_dead_ends(sig, monkeypatch):
    # the walk makes one `_extend` search for the prefixes of length
    # head = n - _TAIL, and one more, a table fill, per distinct placed set of
    # those prefixes, for its tails.  A search offers each candidate once, and
    # a candidate is its prefix or tail so far; it offers no dead end exactly
    # when every candidate is a prefix of something it must produce.  So the
    # offers equal the distinct nonempty prefixes of length at most head of
    # the yielded avoiders, and, over the fills, the distinct pairs of a
    # placed set and a nonempty tail part, both counted from the yielded
    # avoiders.  `_admissible` makes every offer.
    admissible, extend = permutations_mod._admissible, permutations_mod._extend

    def counting_admissible(sig, used):
        values = admissible(sig, used)
        placed = len(used) - 2 - used.count(0)
        offered["prefix" if placed < head else "fill"] += len(values)
        return values

    def counting_extend(*args):
        nonlocal searches
        searches += 1
        return extend(*args)

    monkeypatch.setattr(permutations_mod, "_admissible", counting_admissible)
    monkeypatch.setattr(permutations_mod, "_extend", counting_extend)
    pattern = Permutation(sig)
    tail = permutations_mod._TAIL
    for n in range(11):
        head = max(n - tail, 0)
        offered = {"prefix": 0, "fill": 0}
        searches = 0
        walk = [p.entries for p in enumerate_avoiders(n, pattern)]
        assert len(walk) == catalan(n)
        prefixes = {e[:k] for e in walk for k in range(1, head + 1)}
        tails = {(frozenset(e[:head]), e[head:k]) for e in walk for k in range(head + 1, n + 1)}
        placed_sets = {frozenset(e[:head]) for e in walk}
        assert offered == {"prefix": len(prefixes), "fill": len(tails)}, n
        assert searches == 1 + len(placed_sets), n
        # every set of n - _TAIL values starts some avoider
        assert len(placed_sets) == math.comb(n, min(tail, n)), n


def test_enumerations_go_deep_without_recursion():
    # recursing once per position, both generators failed before their first
    # item at this length
    assert next(enumerate_avoiders(1200, cap=1200)).entries == tuple(range(1, 1201))
    assert next(enumerate_rank_sequences(1200, cap=1200)).values == (1,) * 1200


# --- permutations built by construction ----------------------------------------
#
# The avoider search and `invert` wrap their tuples with `Permutation._trusted`,
# which skips validation; everything else still validates.

def _built_permutations():
    for sig in ALL_SIGS:
        for n in range(10):
            yield from enumerate_avoiders(n, Permutation(sig))
    for n in range(1, 11):
        for t in itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1):
            yield invert(t)


def test_built_permutations_equal_validated_ones():
    for p in _built_permutations():
        validated = Permutation(p.entries)  # raises unless p is a permutation
        assert type(p) is Permutation
        assert p == validated and hash(p) == hash(validated)


def test_built_permutations_skip_validation(monkeypatch):
    calls = 0
    validate = Permutation.__post_init__

    def counting(self):
        nonlocal calls
        calls += 1
        validate(self)

    monkeypatch.setattr(Permutation, "__post_init__", counting)
    avoiders = sum(1 for _ in enumerate_avoiders(8))
    inverses = 0
    for n in range(1, 9):
        for t in itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1):
            invert(t)
            inverses += 1
    assert (avoiders, inverses, calls) == (1430, 2055, 0)
    Permutation((2, 1))
    assert calls == 1  # the counter does see the validating constructor


def test_outside_input_is_still_validated():
    with pytest.raises(InputError) as repeated:
        Permutation((2, 2))
    assert str(repeated.value) == "not a permutation of 1..2: (2, 2)"
    with pytest.raises(InputError) as gap:
        Permutation.from_text("1 3")
    assert str(gap.value) == "not a permutation of 1..2: (1, 3)"
    # 1423 contains 132, and its ranks (3, 1, 2, 1) leave the family
    with pytest.raises(SequenceValidationError) as off_family:
        rank_sequence(Permutation.from_text("1423"))
    assert str(off_family.value) == "drop of 2 at positions 1->2"


def test_all_six_patterns_equinumerous():
    for n in range(1, 9):
        counts = {
            sig: sum(1 for _ in enumerate_avoiders(n, Permutation(sig)))
            for sig in ALL_SIGS
        }
        assert len(set(counts.values())) == 1, (n, counts)
