import doctest
import importlib
import pkgutil

import pytest

import shallowperm

MODULES = ["shallowperm"] + sorted(
    info.name for info in pkgutil.iter_modules(shallowperm.__path__, "shallowperm.")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
