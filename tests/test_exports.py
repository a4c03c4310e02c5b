import importlib
import pkgutil

import pytest

import kglab

MODULES = ["kglab"] + [
    f"kglab.{info.name}" for info in pkgutil.iter_modules(kglab.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale export of a deleted name would otherwise surface only on
    # `from kglab import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
