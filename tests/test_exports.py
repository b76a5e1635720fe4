"""Every exported name resolves, so a stale ``__all__`` entry fails the suite; each
name has one import path, from the module that defines it."""

import ast
import importlib
import inspect
import pathlib
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
    defined = [getattr(module, n) for n in exported]
    assert [
        obj.__qualname__ for obj in defined
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != name
    ] == []


def test_the_package_binds_only_its_submodules_and_version():
    for name in MODULES:
        importlib.import_module(name)
    public = {n: v for n, v in vars(schurbox).items() if not n.startswith("_")}
    assert [n for n, v in public.items() if getattr(v, "__name__", None) != f"schurbox.{n}"] == []
    assert isinstance(schurbox.__version__, str)


def test_no_module_imports_a_private_name_from_another():
    private = []
    for path in sorted(pathlib.Path(schurbox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("schurbox")):
                private += [(path.name, node.module, a.name) for a in node.names if a.name.startswith("_")]
    assert private == []
