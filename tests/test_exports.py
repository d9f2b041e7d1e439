"""Every name an export list promises resolves, so none outlives its code."""

import importlib
import pkgutil

import pytest

import cshiftlab

MODULES = ["cshiftlab"] + [f"cshiftlab.{m.name}"
                           for m in pkgutil.iter_modules(cshiftlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
