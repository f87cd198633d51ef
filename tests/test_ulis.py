import itertools

import pytest
from hypothesis import given, strategies as st

from ulisperm import (
    ConstructionError,
    InputError,
    Permutation,
    RankSequence,
    catalan,
    contains_pattern,
    enumerate_avoiders,
    enumerate_rank_sequences,
    has_ulis,
    rank_sequence,
    uniquify_lis,
    uniquify_max,
)
from ulisperm import ulis as ulis_mod
from ulisperm.ulis import _restore_max, _unique_max, uniquify_stages

from oracles import max_positions, rank_sequences_by_filter, uniquify_max_by_profile


def seq(text):
    return RankSequence.from_text(text)


@st.composite
def tied_max_sequences_st(draw, max_n=24):
    n = draw(st.integers(2, max_n))
    right_to_left = [1]
    for _ in range(n - 1):
        right_to_left.append(draw(st.integers(1, right_to_left[-1] + 1)))
    values = tuple(reversed(right_to_left))
    top = max(values)
    if values.count(top) == 1:
        # tie the maximum by flattening everything above 1; the constant
        # sequence is always a family member with a tied maximum
        values = tuple(1 for _ in values)
    return RankSequence(values)


# --- classification -----------------------------------------------------------

@pytest.mark.parametrize("text,unique", [
    ("221", False),
    ("321", True),
    ("111", False),
])
def test_unique_max_examples(text, unique):
    assert _unique_max(seq(text).values) is unique


def test_unique_max_agrees_with_max_positions():
    # the filter expands the defining conditions over all n^n value tuples,
    # so it stops at n = 7 (0.3 s; n = 8 takes 5 s) and the library's
    # enumerator covers n = 8..10
    sequences = [values for n in range(1, 8) for values in rank_sequences_by_filter(n)]
    sequences += [t.values for n in range(8, 11)
                  for t in itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1)]
    for values in sequences:
        assert _unique_max(values) == (len(max_positions(values)) == 1)


# --- the sequence-level injection ----------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("221", "3 2 1"),
    ("1221", "1 3 2 1"),
    ("2221", "2 3 2 1"),   # only the final two of three maxima bound the bump
    ("11", "2 1"),
])
def test_uniquify_max_examples(text, expected):
    assert str(uniquify_max(seq(text))) == expected


def test_uniquify_max_rejects_unique_maximum():
    with pytest.raises(InputError, match="unique maximum"):
        uniquify_max(seq("321"))


def test_uniquify_max_images_exhaustive():
    for n in range(2, 9):
        for t in itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1):
            before = max_positions(t.values)
            if len(before) == 1:
                continue
            image = uniquify_max(t)  # the bump validates membership
            assert max(image.values) == max(t.values) + 1
            assert max_positions(image.values) == (before[-2],)
            # right edge of the bumped stretch still drops by at most 1
            j = before[-1]
            assert image.values[j - 2] - image.values[j - 1] <= 1


def test_uniquify_max_injective_small():
    for n in range(2, 10):
        images = [
            uniquify_max(t).values
            for t in itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1)
            if len(max_positions(t.values)) > 1
        ]
        assert len(images) == len(set(images))


def test_uniquify_max_matches_profile_oracle():
    for n in range(1, 11):
        for t in itertools.islice(enumerate_rank_sequences(n), catalan(n) + 1):
            if len(max_positions(t.values)) > 1:
                assert uniquify_max(t).values == uniquify_max_by_profile(t).values
            elif n <= 7:
                with pytest.raises(InputError) as ours:
                    uniquify_max(t)
                with pytest.raises(InputError) as theirs:
                    uniquify_max_by_profile(t)
                assert str(ours.value) == str(theirs.value)


def test_uniquify_max_checks_its_image(monkeypatch):
    # a bump that is lost: the bumped stretch is built back at its old
    # values, so (3, 2, 1) comes out as (2, 2, 1), a member of the family
    # that the image check must refuse
    t = seq("221")
    monkeypatch.setattr(ulis_mod, "tuple", lambda bumped: tuple(v - 1 for v in bumped),
                        raising=False)
    with pytest.raises(ConstructionError) as error:
        uniquify_max(t)
    assert str(error.value) == "image of 2 2 1 lacks the promised unique maximum: 2 2 1"


@given(tied_max_sequences_st())
def test_uniquify_max_random(t):
    image = uniquify_max(t)
    assert len(max_positions(image.values)) == 1
    assert max(image.values) == max(t.values) + 1


# --- the bump's left inverse --------------------------------------------------------

def test_restore_max_inverts_the_bump_exhaustively():
    # every tied input comes back from its image, and every other member of
    # the family restores to None
    for n in range(1, 10):
        images = set()
        for t in enumerate_rank_sequences(n):
            if not _unique_max(t.values):
                image = uniquify_max(t).values
                assert _restore_max(image) == t.values, t
                images.add(image)
        for t in enumerate_rank_sequences(n):
            if t.values not in images:
                assert _restore_max(t.values) is None, t


@given(tied_max_sequences_st(max_n=300))
def test_restore_max_inverts_long_bumps(t):
    assert _restore_max(uniquify_max(t).values) == t.values


@pytest.mark.parametrize("values", [
    (),
    (1,),
    (1, 1, 1),        # all ones: no M - 1
    (2, 2, 1),        # a tied maximum
    (1, 2, 3),        # M - 1 only before M
    (2, 1, 3, 1),
    (3, 2, 1, 2, 1),  # the 1 between M and the last M - 1 would fall to 0
])
def test_restore_max_refuses_non_images(values):
    assert _restore_max(values) is None


# --- the permutation-level injection ---------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("213", "1 2 3"),
    ("21", "1 2"),
    ("321", "3 1 2"),
])
def test_uniquify_lis_examples(text, expected):
    assert str(uniquify_lis(Permutation.from_text(text))) == expected


def test_uniquify_lis_rejects_pattern():
    with pytest.raises(InputError, match="contains 132"):
        uniquify_lis(Permutation.from_text("132"))


def test_uniquify_lis_rejects_existing_unique_subsequence():
    with pytest.raises(InputError, match="already has"):
        uniquify_lis(Permutation.from_text("123"))


def test_uniquify_lis_typing_and_injectivity():
    for n in range(1, 8):
        images = []
        for p in enumerate_avoiders(n):
            # the tie test on ranks agrees with the subsequence counts
            if has_ulis(p):
                with pytest.raises(InputError) as caught:
                    uniquify_lis(p)
                assert str(caught.value) == ("input already has a unique longest "
                                             f"increasing subsequence: {p}")
                continue
            assert uniquify_stages(p)[0] == rank_sequence(p)
            image = uniquify_lis(p)
            assert has_ulis(image)
            assert not contains_pattern(image).contains
            images.append(image.entries)
        assert len(images) == len(set(images))


def test_characterization_small():
    for n in range(1, 9):
        for p in enumerate_avoiders(n):
            assert has_ulis(p) == (len(max_positions(rank_sequence(p).values)) == 1)
