"""Every exported name resolves, so a stale ``__all__`` entry fails the suite."""

import importlib
import pkgutil

import pytest

import schurbox

MODULES = ["schurbox"] + [f"schurbox.{info.name}" for info in pkgutil.iter_modules(schurbox.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
