import importlib
import pkgutil

import pytest

import mzi_lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(mzi_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"mzi_lab.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
