import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from ulisperm import (
    ConstructionError,
    InputError,
    Permutation,
    RankSequence,
    SequenceValidationError,
    catalan,
    census_enumerative,
    contains_pattern,
    enumerate_avoiders,
    enumerate_rank_sequences,
    invert,
    rank_sequence,
    ranks,
    run_suite,
    start_ranks,
    ulis,
)
from ulisperm.ranks import _generate_sequences

from oracles import (
    catalan_by_recurrence,
    invert_by_pop,
    invert_by_search,
    rank_sequences_by_filter,
    rank_sequences_by_successor,
    start_ranks_by_subsets,
    validate_by_loops,
)


@st.composite
def rank_sequences_st(draw, max_n=32):
    n = draw(st.integers(1, max_n))
    right_to_left = [1]
    for _ in range(n - 1):
        right_to_left.append(draw(st.integers(1, right_to_left[-1] + 1)))
    return RankSequence(tuple(reversed(right_to_left)))


# --- validation -----------------------------------------------------------

def test_validate_accepts_member():
    assert RankSequence((2, 2, 1)).values == (2, 2, 1)


def test_validate_reports_drop():
    with pytest.raises(SequenceValidationError) as exc:
        RankSequence((1, 3, 1))
    assert exc.value.condition == "adjacent-drop"
    assert exc.value.position == 2
    assert "2->3" in str(exc.value)


def test_validate_reports_final_entry():
    with pytest.raises(SequenceValidationError) as exc:
        RankSequence((1, 1, 2))
    assert exc.value.condition == "final-entry"
    assert exc.value.position == 3


def test_validate_reports_nonpositive():
    with pytest.raises(SequenceValidationError) as exc:
        RankSequence((1, 0, 1))
    assert exc.value.condition == "positive"
    assert exc.value.position == 2


def test_validate_rejects_empty():
    with pytest.raises(SequenceValidationError) as exc:
        RankSequence(())
    assert exc.value.condition == "empty"


def outcome(validate, values):
    """None when `validate` accepts `values`, else the raised error's
    condition, position and message."""
    try:
        validate(values)
    except SequenceValidationError as exc:
        return exc.condition, exc.position, str(exc)
    return None


def check_validation(values):
    """`validate_values` accepts or refuses `values` exactly as the loops
    alone do, and what it accepts keeps the bound values[i] <= n - i that
    reaching the final 1 by unit drops implies."""
    got = outcome(ranks.validate_values, values)
    assert got == outcome(validate_by_loops, values), values
    if got is None:
        n = len(values)
        assert all(v <= n - i for i, v in enumerate(values)), values
    return got


def test_validation_fast_path_agrees_with_loops_exhaustively():
    members = 0
    for n in range(6):
        for values in itertools.product(range(-1, 5), repeat=n):
            members += check_validation(values) is None
    assert members == 1 + 2 + 5 + 14 + 41  # catalan(1..5), less 5 4 3 2 1


@st.composite
def near_members_st(draw):
    """A member with up to two entries moved by at most 3 either way."""
    values = list(draw(rank_sequences_st(max_n=40)).values)
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, len(values) - 1))] += draw(st.integers(-3, 3))
    return tuple(values)


@given(near_members_st())
def test_validation_fast_path_agrees_with_loops(values):
    check_validation(values)


@given(rank_sequences_st(max_n=200))
def test_validation_accepts_members_within_the_implied_bound(t):
    check_validation(t.values)


def test_list_built_values_are_stored_as_tuples():
    for cls in (RankSequence, Permutation):
        from_list, from_tuple = cls([2, 1]), cls((2, 1))
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert RankSequence([2, 1]).values == (2, 1)
    assert Permutation([2, 1]).entries == (2, 1)
    assert invert(RankSequence([2, 1])) == Permutation((1, 2))
    assert rank_sequence(Permutation([2, 1])) == RankSequence((1, 1))


# --- enumeration and counting ----------------------------------------------

# Every test loop over `enumerate_rank_sequences(n)` takes at most
# catalan(n) + 1 items, so an enumeration that never ends stops at once, and
# fails the tests that count or keep what it yields, instead of filling
# memory or running until the per-test time limit.

def test_sequences_length_3():
    got = [str(t) for t in itertools.islice(enumerate_rank_sequences(3), catalan(3) + 1)]
    assert got == ["1 1 1", "1 2 1", "2 1 1", "2 2 1", "3 2 1"]


def test_sequences_length_1():
    got = itertools.islice(enumerate_rank_sequences(1), catalan(1) + 1)
    assert [t.values for t in got] == [(1,)]


def test_sequences_match_condition_filter():
    for n in range(1, 8):
        got = [t.values
               for t in itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1)]
        assert got == sorted(got)
        assert got == rank_sequences_by_filter(n)


def test_sequences_match_per_entry_successor():
    # the slice refill against the refill one entry at a time, past the
    # reach of the condition filter
    for n in range(1, 12):
        got = itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1)
        assert [t.values for t in got] == rank_sequences_by_successor(n), n


def test_enumerated_sequences_equal_validated_ones():
    # the enumerator wraps its tuples with `RankSequence._trusted`
    for n in range(1, 11):
        for t in itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1):
            validated = RankSequence(t.values)  # raises unless t is a member
            assert type(t) is RankSequence and type(t.values) is tuple
            assert t == validated and hash(t) == hash(validated)


def test_enumeration_skips_validation(monkeypatch):
    calls = 0
    validate = ranks.validate_values

    def counting(values):
        nonlocal calls
        calls += 1
        validate(values)

    # the bump validates its image through the `ulis` binding
    for module in (ranks, ulis):
        monkeypatch.setattr(module, "validate_values", counting)
    census_enumerative(10)
    assert run_suite("catalan", 10).passed
    assert calls == 0
    # injection-f validates each image in `ulis._bump`, and nothing else
    report = run_suite("injection-f", 9)
    assert report.passed and calls == report.outcome["inputs"] == 3256
    RankSequence((1,))
    assert calls == 3257  # the counter does see the validating constructor


def test_walk_yields_the_enumerated_values():
    # the private walk yields the plain tuples the public enumerator wraps
    for n in range(1, 12):
        walk = list(itertools.islice(_generate_sequences(n), catalan(n) + 1))
        assert all(type(values) is tuple for values in walk)
        got = itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1)
        assert walk == [t.values for t in got], n


def test_census_and_injection_f_wrap_only_what_they_pass_on(monkeypatch):
    built = []
    wrap, init = RankSequence._trusted, RankSequence.__init__

    def counting_wrap(values):
        built.append(values)
        return wrap(values)

    def counting_init(self, values):
        built.append(values)
        init(self, values)

    monkeypatch.setattr(RankSequence, "_trusted", counting_wrap)
    monkeypatch.setattr(RankSequence, "__init__", counting_init)
    # the census classifies plain tuples and wraps none
    for n in range(1, 10):
        census_enumerative(n)
    assert built == []
    # injection-f bumps and restores plain tuples, and wraps or constructs
    # no rank sequence
    report = run_suite("injection-f", 9)
    assert report.passed and report.outcome["inputs"] == 3256
    assert built == []
    # the counters do see the public enumerator and the constructor
    next(enumerate_rank_sequences(3))
    RankSequence((1,))
    assert built == [(1, 1, 1), (1,)]


def test_sequences_counted_by_catalan():
    for n in range(1, 10):
        walk = itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1)
        assert sum(1 for _ in walk) == catalan(n)


def test_sequences_cap():
    with pytest.raises(InputError, match="capped"):
        list(enumerate_rank_sequences(13))
    with pytest.raises(InputError):
        list(enumerate_rank_sequences(0))


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(10) == 16796
    assert catalan(12) == 208012


def test_catalan_against_recurrence_and_formula():
    for n in range(16):
        c = catalan(n)
        assert c == catalan_by_recurrence(n)
        quotient, remainder = divmod(math.comb(2 * n, n), n + 1)
        assert remainder == 0 and c == quotient


def test_catalan_equals_difference_of_binomials():
    # the integer-only form catalan() used before it divided exactly
    for n in range(2001):
        assert catalan(n) == math.comb(2 * n, n) - math.comb(2 * n, n + 1), n


def test_catalan_equals_the_census_recurrence():
    # census_rows_dp carries its totals by this recurrence and trusts it at
    # run time
    total = 1
    for n in range(1, 2001):
        total = total * 2 * (2 * n - 1) // (n + 1)
        assert total == catalan(n), n


# --- the rank map ------------------------------------------------------------

def test_rank_sequence_example():
    assert rank_sequence(Permutation.from_text("213")).values == (2, 2, 1)


def test_rank_sequence_matches_subset_oracle_on_avoiders():
    for n in range(1, 7):
        for p in enumerate_avoiders(n):
            assert rank_sequence(p).values == start_ranks_by_subsets(p.entries)


def test_ranks_total_even_off_family():
    # 1423 contains 132; its ranks exist but leave the family (drop of 2).
    p = Permutation.from_text("1423")
    assert start_ranks(p) == (3, 1, 2, 1)
    with pytest.raises(SequenceValidationError):
        rank_sequence(p)


def test_avoider_ranks_satisfy_conditions():
    # ends in 1, adjacent drops at most 1 -- for every avoider, by membership
    for n in range(1, 8):
        for p in enumerate_avoiders(n):
            rank_sequence(p)  # would raise if either condition failed


# --- the inverse -------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("121", "3 1 2"),
    ("111", "3 2 1"),
    ("221", "2 1 3"),
    ("321", "1 2 3"),
    ("1", "1"),
    pytest.param(" ".join(["1"] * 1000), " ".join(map(str, range(1000, 0, -1))),
                 id="ones-1000"),
    pytest.param(" ".join(map(str, range(1000, 0, -1))), " ".join(map(str, range(1, 1001))),
                 id="staircase-1000"),
])
def test_invert_examples(text, expected):
    assert str(invert(RankSequence.from_text(text))) == expected


def test_invert_matches_exhaustive_search():
    for n in range(1, 8):
        for t in itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1):
            assert invert(t) == invert_by_search(t), t


def test_invert_matches_pop_decode():
    for n in range(1, 11):
        for t in itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1):
            assert invert(t) == invert_by_pop(t), t


@settings(max_examples=100)
@given(rank_sequences_st(max_n=200))
def test_invert_matches_pop_decode_on_long_sequences(t):
    assert invert(t) == invert_by_pop(t)


def test_round_trips():
    for n in range(1, 9):
        for p in enumerate_avoiders(n):
            assert invert(rank_sequence(p)) == p
        for t in itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1):
            assert rank_sequence(invert(t)) == t


def test_invert_raises_when_its_check_fails(monkeypatch):
    t = RankSequence.from_text("1 2 1")
    assert invert(t) == Permutation((3, 1, 2))
    # ranks that differ from t
    monkeypatch.setattr(ranks, "_sweep_132", lambda e: (None, (2, 2, 1)))
    with pytest.raises(ConstructionError):
        invert(t)
    # a 132 in the decode
    monkeypatch.setattr(ranks, "_sweep_132", lambda e: ((1, 2, 3), None))
    with pytest.raises(ConstructionError):
        invert(t)


def test_invert_output_avoids_132():
    for t in itertools.islice(enumerate_rank_sequences(6), catalan(6) + 1):
        assert not contains_pattern(invert(t)).contains


@settings(max_examples=200)
@given(rank_sequences_st())
def test_round_trip_random_sequences(t):
    p = invert(t)
    assert rank_sequence(p) == t
    assert not contains_pattern(p).contains


# --- equivalent zero-based family --------------------------------------------

def zero_based_family(n):
    """Sequences of nonnegative ints starting at 0, each entry at most one
    more than its predecessor; generated directly from that definition."""
    out = []

    def extend(prefix):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(prefix[-1] + 2):
            extend(prefix + [v])

    extend([0])
    return sorted(out)


def test_reversed_shift_matches_zero_based_family():
    for n in range(1, 9):
        transformed = sorted(
            tuple(v - 1 for v in reversed(t.values))
            for t in itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1)
        )
        assert transformed == zero_based_family(n)
