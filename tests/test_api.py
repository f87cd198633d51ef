import pytest

import ulisperm
from ulisperm import (
    InputError,
    census_rows_dp,
    enumerate_avoiders,
    enumerate_rank_sequences,
    ulis_count_all,
)


def test_every_export_resolves_once():
    names = ulisperm.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(ulisperm, name)] == []


# every length-checked entry point: (call with n and cap, noun, least n)
LENGTH_CHECKED = [
    pytest.param(lambda n, cap: enumerate_avoiders(n, cap=cap),
                 "avoider enumeration", 0, id="enumerate_avoiders"),
    pytest.param(lambda n, cap: enumerate_rank_sequences(n, cap=cap),
                 "rank-sequence enumeration", 1, id="enumerate_rank_sequences"),
    pytest.param(lambda n, cap: next(census_rows_dp(n, cap=cap)),
                 "dynamic-program census", 1, id="census_rows_dp"),
    pytest.param(lambda n, cap: ulis_count_all(n, cap=cap),
                 "all-permutation scan", 0, id="ulis_count_all"),
]


@pytest.mark.parametrize("call, what, low", LENGTH_CHECKED)
def test_one_message_per_length_rule(call, what, low):
    with pytest.raises(InputError) as below:
        call(low - 1, 3)
    assert str(below.value) == f"{what} needs n >= {low}, got {low - 1}"
    with pytest.raises(InputError) as above:
        call(4, 3)
    assert str(above.value) == (
        f"{what} capped at n = 3 (requested 4); pass a higher cap to override")
