import sys

import pytest

import ulisperm
import ulisperm.cli  # noqa: F401  (loads every module of the package)
from ulisperm import (
    InputError,
    census_enumerative,
    census_rows_dp,
    enumerate_avoiders,
    enumerate_rank_sequences,
    ulis_count_all,
)


def test_every_export_resolves_once():
    names = ulisperm.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(ulisperm, name)] == []


# Helpers on the hot paths of the verify suites and of census formatting.  A
# benchmark tracer that wraps every public function of the package would add
# 10^3 to 10^6 spans per run if one of them were public, so they stay private
# at every binding.
def test_hot_helpers_stay_private():
    # compared by code object, so the ranker that `_lex_ranker` returns is
    # found at a public binding whichever length it was built for
    helpers = [ulisperm.Permutation._trusted.__func__,
               ulisperm.RankSequence._trusted.__func__, ulisperm.ulis._unique_max,
               ulisperm.permutations._least_start, ulisperm.permutations._admissible,
               ulisperm.ranks._lex_ranker, ulisperm.ranks._lex_ranker(3),
               ulisperm.errors._int_text, ulisperm.errors._text_int]
    codes = {fn.__code__ for fn in helpers}
    namespaces = {name: vars(module) for name, module in sys.modules.items()
                  if name.split(".")[0] == "ulisperm"}
    namespaces["ulisperm.Permutation"] = vars(ulisperm.Permutation)
    namespaces["ulisperm.RankSequence"] = vars(ulisperm.RankSequence)
    public = [f"{where}.{name}" for where, namespace in namespaces.items()
              for name, obj in namespace.items()
              if not name.startswith("_")
              and getattr(getattr(obj, "__func__", obj), "__code__", None) in codes]
    assert public == []
    assert {"_trusted", "_unique_max", "_least_start", "_admissible",
            "_lex_ranker", "_int_text", "_text_int"}.isdisjoint(ulisperm.__all__)
    # the quadratic start-length scan lives on only as a test oracle
    assert not hasattr(ulisperm.permutations, "_fill_starts")
    # `map` decides ties from the ranks, so subsequence counts serve
    # `lis_stats` alone
    assert not hasattr(ulisperm.permutations, "_lis_stats")
    # census rows derive v and ratio, so nothing builds or checks them apart
    assert not hasattr(ulisperm.census, "_make_row")
    assert not hasattr(ulisperm.census, "CSV_COLUMNS")
    # the unique-maximum rule is stated once, in `_unique_max`
    for module in (ulisperm, ulisperm.ulis):
        assert not hasattr(module, "max_profile")
        assert not hasattr(module, "MaxProfile")


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
    pytest.param(lambda n, cap: census_enumerative(n, cap=cap),
                 "enumerative census", 1, id="census_enumerative"),
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
