"""Every exported name resolves, so a stale ``__all__`` entry fails the suite; each
name has one import path, from the module that defines it; and every function in
``src/`` is reached from the program, not from the tests alone."""

import ast
import importlib
import importlib.util
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
# perfbench/tracer.py wraps these by the strings of its FUNCTIONS table, and no
# check calls them.  Retargeting the tracer to the kernels the checks call
# (ROADMAP, "perfbench on the frontier") empties this set.
REACHED_ONLY_BY_THE_TRACER = {"poly.exact_div", "poly.determinant"}


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
    a name in code: a name, an attribute or an imported name.  String
    constants, ``__all__`` entries among them, are data and do not count."""
    if isinstance(node, ast.FunctionDef):
        inside += (node,)
    if isinstance(node, ast.Attribute):
        yield node.attr, True, inside
    elif isinstance(node, ast.Name):
        yield node.id, False, inside
    elif isinstance(node, ast.alias):
        yield node.name.rpartition(".")[2], False, inside
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def _unreached(trees, package):
    """Qualified names, sorted, of the functions, methods and properties that
    the modules of ``trees`` in ``package`` define and that no tree names
    outside their own body.  A module-level function counts as named by a
    name, an attribute or an imported name; a method or property only by an
    attribute access, so a local variable called ``terms`` does not hide a
    method of that name.  Dunder methods are the language's hooks and are
    never listed."""
    uses: dict[str, list] = {}
    for tree in trees.values():
        for name, attribute, inside in _references(tree):
            uses.setdefault(name, []).append((attribute, inside))
    return sorted(
        qualname
        for path, tree in trees.items() if path.parent == package
        for qualname, name, member, node in _definitions(path, tree)
        if not (name.startswith("__") and name.endswith("__"))
        and not any((attribute or not member) and node not in inside
                    for attribute, inside in uses.get(name, ()))
    )


def test_the_scan_counts_code_not_strings():
    package = pathlib.PurePath("src", "lib")
    library = """
__all__ = ["listed", "quoted", "recursive", "called", "Box"]

def listed():
    pass

def quoted():
    pass

def recursive(n):
    return recursive(n - 1) if n else 0

def called():
    return Box().method()

class Box:
    def method(self):
        pass

    def idle(self):
        pass
"""
    program = """
from lib.core import called

KIND = "quoted"
idle = called()
"""
    trees = {package / "core.py": ast.parse(library),
             pathlib.PurePath("scripts", "main.py"): ast.parse(program)}
    assert _unreached(trees, package) == ["Box.idle", "core.listed", "core.quoted", "core.recursive"]


def test_every_src_function_is_reached_from_the_program():
    """Each function, method and property of ``src/schurbox`` is named somewhere
    in the code of ``src/``, ``scripts/`` or ``perfbench/`` outside its own
    body, so no code in ``src/`` is there for the tests alone.  The two
    allowlists are exact: an entry that the program reaches fails the test, as
    does an entry of the tracer's set that the tracer does not look up.

    Blind spots, as the scan goes by name alone:
    - a member whose name another member shares, or that only a sibling
      reads: ``PlanePartition.validate`` hid behind ``ColumnStrictPP.validate``,
      ``PlanePartition.n`` behind ``BoxParams.n``, ``Monomial.one`` behind
      ``LaurentPoly.one``, and ``DnReport.leading_coefficient_ok`` behind its
      one reader ``all_pass``;
    - a module-level function whose name the program also uses as a
      variable or an attribute;
    - a use inside code that is itself unreached, so two dead functions that
      call each other keep each other in;
    - a lookup by string, as ``getattr`` or the tracer's table does: such a
      function is flagged, and belongs in ``REACHED_ONLY_BY_THE_TRACER``.
    """
    trees = {path: ast.parse(path.read_text(), str(path))
             for top in PROGRAM for path in sorted((ROOT / top).rglob("*.py"))}
    unreached = _unreached(trees, ROOT / "src" / "schurbox")
    allowed = REACHED_ONLY_FROM_TESTS | REACHED_ONLY_BY_THE_TRACER
    assert [qualname for qualname in unreached if qualname not in allowed] == []
    assert sorted(allowed.difference(unreached)) == []
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {f"{module}.{name}" for module, name, _ in tracer.FUNCTIONS}
    assert REACHED_ONLY_BY_THE_TRACER - traced == set()
