"""Every name a module lists in ``__all__`` exists in that module."""

import importlib

import pytest


@pytest.mark.parametrize("module", [
    "ellcomb", "ellcomb.ncword", "ellcomb.boards", "ellcomb.skewpoly",
    "ellcomb.verify", "ellcomb.cli",
])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
