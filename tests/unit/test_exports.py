"""Every name a ``repro`` module lists in ``__all__`` resolves.

A re-export left behind when a module is deleted or a name moves then
fails here, naming the module, instead of at some later import.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [
        attr for attr in getattr(module, "__all__", ())
        if not hasattr(module, attr)
    ]
    assert not missing, f"{name}.__all__ names undefined {missing}"
