"""Every name a fraclat module lists in __all__ resolves on that module."""
import importlib
import pkgutil

import pytest

import fraclat

MODULES = ["fraclat"] + [f"fraclat.{info.name}" for info in pkgutil.iter_modules(fraclat.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
