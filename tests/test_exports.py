"""Every exported name resolves, so a stale ``__all__`` entry fails the suite; each
name has one import path, from the module that defines it; and every function in
``src/`` is reached from the program, not from the tests alone."""

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


ROOT = pathlib.Path(__file__).resolve().parents[1]
PROGRAM = ("src", "scripts", "perfbench")
# LaurentPoly.terms is the one public way to decode keys into Monomials; the
# test references need it, and could not rebuild it without Monomial._make.
REACHED_ONLY_FROM_TESTS = {"LaurentPoly.terms"}


def _definitions(path, tree):
    """(qualified name, name, is a member, node) for each module-level function
    and each method or property of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{path.stem}.{node.name}", node.name, False, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, True, item


def _references(node, inside=()):
    """(name, is an attribute access, enclosing function nodes) for each use of
    a name: a name, an attribute, an imported name or a string constant."""
    if isinstance(node, ast.FunctionDef):
        inside += (node,)
    if isinstance(node, ast.Attribute):
        yield node.attr, True, inside
    elif isinstance(node, ast.Name):
        yield node.id, False, inside
    elif isinstance(node, ast.alias):
        yield node.name.rpartition(".")[2], False, inside
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value, False, inside
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def test_every_src_function_is_reached_from_the_program():
    """Each function, method and property of ``src/schurbox`` is named somewhere
    in ``src/``, ``scripts/`` or ``perfbench/`` outside its own body, so no code
    in ``src/`` is there for the tests alone.

    A module-level function counts as named by a name, an attribute, an
    imported name or a string constant (the tracer looks its functions up by
    string).  A method or property counts only by an attribute access, so a
    local variable called ``terms`` does not hide a method of that name.
    Dunder methods are the language's hooks and are exempt.  The scan goes by
    name alone, so it cannot see a member whose name another member shares or
    that only a sibling reads: ``PlanePartition.validate`` hid behind
    ``ColumnStrictPP.validate``, ``PlanePartition.n`` behind ``BoxParams.n``,
    ``Monomial.one`` behind ``LaurentPoly.one``, and
    ``DnReport.leading_coefficient_ok`` behind its one reader ``all_pass``.
    """
    trees = {path: ast.parse(path.read_text(), str(path))
             for top in PROGRAM for path in sorted((ROOT / top).rglob("*.py"))}
    uses: dict[str, list] = {}
    for tree in trees.values():
        for name, attribute, inside in _references(tree):
            uses.setdefault(name, []).append((attribute, inside))
    package = ROOT / "src" / "schurbox"
    unreached = [
        qualname
        for path, tree in trees.items() if path.parent == package
        for qualname, name, member, node in _definitions(path, tree)
        if not (name.startswith("__") and name.endswith("__"))
        and qualname not in REACHED_ONLY_FROM_TESTS
        and not any((attribute or not member) and node not in inside
                    for attribute, inside in uses.get(name, ()))
    ]
    assert unreached == []
