import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ulisperm
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


# In a new interpreter: a bare `import ulisperm` runs no submodule, but
# registers every one but `cli`; then every exported name and every
# registered submodule resolves through the package.  A registered module
# that has not run yet is still of LazyLoader's module type.
_BARE_IMPORT_PROBE = """
import pkgutil, sys, types
import ulisperm
print(*sorted(name for name, module in sys.modules.items()
              if name.startswith("ulisperm.") and type(module) is types.ModuleType))
print(*sorted(name[len("ulisperm."):] for name in sys.modules if name.startswith("ulisperm.")))
print(*[name for name in ulisperm.__all__ if not hasattr(ulisperm, name)])
modules = [info.name for info in pkgutil.iter_modules(ulisperm.__path__)]
print(*[name for name in modules if name != "cli"
        and getattr(ulisperm, name) is not sys.modules["ulisperm." + name]])
print(*sorted(set(ulisperm.__all__) - set(dir(ulisperm))))
print(*modules)
"""


def test_bare_import_resolves_on_first_use():
    src = str(Path(ulisperm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _BARE_IMPORT_PROBE], env=env,
                         check=True, capture_output=True, text=True, timeout=60).stdout
    ran, registered, unresolved, unbound, undir, modules = out.split("\n")[:6]
    assert (ran, unresolved, unbound, undir) == ("", "", "", "")
    assert {"census", "cli", "verify"} <= set(modules.split())
    assert set(registered.split()) == set(modules.split()) - {"cli"}


def test_each_module_registers_before_those_it_imports_from():
    # the order `import ulisperm` registers its submodules in: a module that
    # binds another's function comes first
    order = list(ulisperm._EXPORTS)
    assert order == [name[len("ulisperm."):] for name in sys.modules
                     if name.startswith("ulisperm.") and name != "ulisperm.cli"][:len(order)]
    for name in order:
        homes = {obj.__module__ for obj in vars(getattr(ulisperm, name)).values()
                 if isinstance(obj, types.FunctionType)
                 and obj.__module__.startswith("ulisperm.")}
        assert {home[len("ulisperm."):] for home in homes} <= set(order[order.index(name):]), name


def test_parser_constants_have_one_home():
    # the CLI's parser reads these from `errors`; each module that uses one
    # re-exports the same object
    from ulisperm import census, cli, errors, oeis, ranks, verify
    for module, name in ((ranks, "SEQUENCE_CAP"), (census, "DP_CAP"),
                         (verify, "SUITE_NAMES"), (oeis, "FIXTURE_ID"),
                         (oeis, "CACHE_ENV_VAR")):
        assert getattr(module, name) is getattr(errors, name), name
        assert getattr(cli, name) is getattr(errors, name), name
    for name in ("SEQUENCE_CAP", "DP_CAP", "SUITE_NAMES"):
        assert getattr(ulisperm, name) is getattr(errors, name), name
    assert tuple(verify._SUITES) == errors.SUITE_NAMES


# Helpers on the hot paths of the verify suites, the enumerative census and
# census formatting.  A benchmark tracer that wraps every public function of
# the package would add 10^3 to 10^6 spans per run if one of them were
# public, so they stay private at every binding.
def test_hot_helpers_stay_private():
    # compared by code object, so the ranker that `_lex_ranker` returns is
    # found at a public binding whichever length it was built for
    helpers = [ulisperm.Permutation._trusted.__func__,
               ulisperm.RankSequence._trusted.__func__, ulisperm.ulis._unique_max,
               ulisperm.permutations._least_start, ulisperm.permutations._admissible,
               ulisperm.ranks._generate_sequences, ulisperm.ranks._lex_ranker,
               ulisperm.ranks._lex_ranker(3),
               ulisperm.errors._int_text, ulisperm.errors._text_int]
    codes = {fn.__code__ for fn in helpers}
    # every module, including those a test has not loaded yet
    for info in pkgutil.iter_modules(ulisperm.__path__):
        importlib.import_module(f"ulisperm.{info.name}")
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
            "_generate_sequences", "_lex_ranker", "_int_text",
            "_text_int"}.isdisjoint(ulisperm.__all__)
    # the quadratic start-length scan lives on only as a test oracle
    assert not hasattr(ulisperm.permutations, "_fill_starts")
    # `map` decides ties from the ranks, so subsequence counts serve
    # `lis_stats` alone
    assert not hasattr(ulisperm.permutations, "_lis_stats")
    # `invert` certifies every decode, so no suite tests its output for 132
    assert not hasattr(ulisperm.verify, "contains_pattern")
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
