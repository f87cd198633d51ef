import doctest
import importlib
import pkgutil

import pytest

import ulisperm

# every module of the package, so a module added later is covered unlisted
MODULES = [info.name for info in pkgutil.iter_modules(ulisperm.__path__, "ulisperm.")]

# the modules whose docstrings carry examples; each must keep at least one,
# and one gone from the package fails to import
WITH_EXAMPLES = {"ulisperm.census", "ulisperm.oeis", "ulisperm.permutations",
                 "ulisperm.ranks", "ulisperm.ulis"}


@pytest.mark.parametrize("name", sorted({*MODULES, *WITH_EXAMPLES}))
def test_module_doctests(name):
    results = doctest.testmod(importlib.import_module(name), verbose=False)
    assert results.failed == 0
    if name in WITH_EXAMPLES:
        assert results.attempted > 0
