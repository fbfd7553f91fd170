"""Every public name the package exports resolves, so a deletion leaves no stale export."""

import importlib
import pkgutil
import types

import pytest

import tofscan

MODULES = sorted(m.name for m in pkgutil.iter_modules(tofscan.__path__))


def test_package_imports():
    """``import tofscan`` runs every re-export in the package's ``__init__``."""
    assert importlib.import_module("tofscan").__version__


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"tofscan.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"tofscan.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_submodule_attribute_is_the_module(name):
    """No re-export in ``__init__`` shadows a submodule (``tofscan.render`` stays a module)."""
    importlib.import_module(f"tofscan.{name}")
    assert isinstance(getattr(tofscan, name), types.ModuleType), \
        f"tofscan.{name} is {type(getattr(tofscan, name)).__name__}, not the submodule"
