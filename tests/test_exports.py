"""Every name a module of the package exports exists, so `import *` works."""

import importlib
import pkgutil

import pytest

import modtalg

MODULES = ["modtalg"] + [f"modtalg.{m.name}" for m in pkgutil.iter_modules(modtalg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    exec(f"from {name} import *", {})
