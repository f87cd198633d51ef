import itertools

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


# --- pattern containment ----------------------------------------------------

def test_pattern_contains_itself():
    verdict = contains_pattern(PATTERN_132, PATTERN_132)
    assert verdict.contains and verdict.witness == (1, 2, 3)


def test_long_example_avoids_132():
    assert not contains_pattern(perm("34256178"), PATTERN_132).contains


def test_witness_is_lex_least():
    verdict = contains_pattern(perm("2413"), PATTERN_132)
    assert verdict.contains and verdict.witness == (1, 2, 4)


def test_pattern_must_have_length_3():
    with pytest.raises(InputError):
        contains_pattern(perm("123"), perm("1234"))


@given(permutations_st(max_n=40), st.sampled_from(ALL_SIGS))
def test_containment_matches_triple_scan(p, sig):
    verdict = contains_pattern(p, Permutation(sig))
    expected = contains_by_triples(p.entries, sig)
    assert verdict.contains == (expected is not None)
    assert verdict.witness == expected


def test_containment_matches_triple_scan_exhaustively():
    patterns = [Permutation(sig) for sig in ALL_SIGS]
    for n in range(7):
        for entries in itertools.permutations(range(1, n + 1)):
            p = Permutation(entries)
            for pattern in patterns:
                expected = contains_by_triples(entries, pattern.entries)
                assert contains_pattern(p, pattern) == PatternVerdict(
                    expected is not None, expected), (entries, pattern)


def test_scan_oracle_matches_triple_scan():
    for n in range(7):
        for entries in itertools.permutations(range(1, n + 1)):
            for sig in ALL_SIGS:
                assert contains_by_scan(entries, sig) == contains_by_triples(entries, sig)


def test_containment_matches_scan_oracle_at_n_7():
    patterns = [Permutation(sig) for sig in ALL_SIGS]
    for entries in itertools.permutations(range(1, 8)):
        p = Permutation(entries)
        for pattern in patterns:
            expected = contains_by_scan(entries, pattern.entries)
            assert contains_pattern(p, pattern) == PatternVerdict(
                expected is not None, expected), (entries, pattern)


@given(long_permutations_st(), st.sampled_from(ALL_SIGS))
def test_containment_matches_scan_oracle(p, sig):
    expected = contains_by_scan(p.entries, sig)
    assert contains_pattern(p, Permutation(sig)) == PatternVerdict(expected is not None, expected)


def test_containment_worst_cases_at_n_1000():
    # the one start is near the end: the oracle's scan passes over every
    # suffix, the sweep reads each entry once
    yes = Permutation(tuple(range(1000, 3, -1)) + (1, 3, 2))
    assert contains_pattern(yes, PATTERN_132) == PatternVerdict(True, (998, 999, 1000))
    reversed_identity = Permutation(tuple(range(1000, 0, -1)))
    assert contains_pattern(reversed_identity, PATTERN_132) == PatternVerdict(False)


@given(permutations_st(min_n=3, max_n=10), st.sampled_from(ALL_SIGS))
def test_witness_is_order_isomorphic(p, sig):
    verdict = contains_pattern(p, Permutation(sig))
    if verdict.contains:
        i, j, k = verdict.witness
        assert i < j < k
        triple = (p.entries[i - 1], p.entries[j - 1], p.entries[k - 1])
        order = tuple(sorted(triple).index(x) + 1 for x in triple)
        assert order == sig


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
    """`_sweep_132` gives the least 132 start of the scan oracle and, on an
    avoider, the start lengths of the Fenwick kernel; `start_ranks` equals
    the kernel's lengths on every input."""
    first, ranks = permutations_mod._sweep_132(entries)
    witness = contains_by_scan(entries, (1, 3, 2))
    assert first == (-1 if witness is None else witness[0] - 1), entries
    lengths, _ = permutations_mod.start_lengths_counts(Permutation(entries))
    if first < 0:
        assert ranks == tuple(lengths), entries
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
            assert permutations_mod._sweep_132(p.entries) == (-1, tuple(lengths)), p
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
    expected = [invert(t).entries for t in enumerate_rank_sequences(10)][::-1]
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
        assert not any(contains_pattern(p, pattern).contains for p in got), n


@pytest.mark.parametrize("sig", ALL_SIGS)
def test_avoider_search_has_no_dead_ends(sig, monkeypatch):
    # the search visits catalan(n+1) prefixes, the empty one included, when
    # every visited prefix completes.  Each nonempty one is a candidate
    # offered once: by range(1, n + 1) after the empty prefix, by
    # `_admissible` after the others that are incomplete.  So the offers
    # number catalan(n+1) - 1 exactly when no offered candidate is a dead
    # end, and the helper is called once per visited prefix that is neither
    # empty nor complete.
    calls = offered = 0
    admissible = permutations_mod._admissible

    def counting(*args):
        nonlocal calls, offered
        values = admissible(*args)
        calls += 1
        offered += len(values)
        return values

    monkeypatch.setattr(permutations_mod, "_admissible", counting)
    for n in range(1, 8):
        calls = 0
        offered = n
        assert sum(1 for _ in enumerate_avoiders(n, Permutation(sig))) == catalan(n)
        assert offered == catalan(n + 1) - 1, (n, offered)
        assert calls == catalan(n + 1) - catalan(n) - 1, (n, calls)


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
        for t in enumerate_rank_sequences(n):
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
        for t in enumerate_rank_sequences(n):
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
