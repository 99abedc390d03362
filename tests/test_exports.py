"""Every name a module lists in ``__all__`` exists, so a removed type cannot
leave a stale export behind."""

import importlib
import pkgutil

import pytest

import nldd

MODULES = ["nldd"] + sorted(f"nldd.{m.name}" for m in pkgutil.iter_modules(nldd.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
