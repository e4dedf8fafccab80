"""Public names: each module's __all__ resolves, the package re-exports
only names its source modules declare public, and no module reaches into
another's private names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import moffo
from moffo import cli, solver

MODULES = sorted(m.name for m in pkgutil.iter_modules(moffo.__path__))


def test_every_all_name_resolves():
    assert MODULES
    for name in MODULES:
        module = importlib.import_module("moffo." + name)
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], "moffo.%s.__all__ names missing attributes: %s" % (name, missing)


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(moffo.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module("moffo." + node.module)
        for alias in node.names:
            assert alias.name in module.__all__, "moffo.%s.%s" % (node.module, alias.name)
            assert getattr(moffo, alias.asname or alias.name) is getattr(module, alias.name)


def _module_trees():
    for name in MODULES:
        yield name, ast.parse(Path(moffo.__file__).with_name(name + ".py").read_text())


def test_modules_import_no_private_names():
    for name, tree in _module_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "moffo"
                                                     or node.module.startswith("moffo.")):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert private == [], "moffo.%s imports %s" % (name, private)


def test_row_form_stays_in_hierarchy():
    # the builders in hierarchy are the only makers of a row-form operator
    for name, tree in _module_trees():
        if name == "hierarchy":
            continue
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Attribute) and node.attr == "_from_rows"), name
            assert not (isinstance(node, ast.Name) and node.id == "_from_rows"), name


def test_packed_rows_stay_in_solver():
    # solver owns the packed trace layout and the CSV written from it
    private = {"_table", "_blocks", "_rows_at", "_ROW", "_NULLABLE"}
    for name, tree in _module_trees():
        if name == "solver":
            continue
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Attribute) and node.attr in private), name
            assert not (isinstance(node, ast.Name) and node.id in private), name
    assert cli.write_trace_csv is solver.write_trace_csv
    assert cli.TRACE_COLUMNS is solver.TRACE_COLUMNS


def test_svd_stays_in_hierarchy():
    # the builders give their operators closed-form norms, and a caller's
    # dense P takes its norm and sigma_min from one SVD in hierarchy
    for name, tree in _module_trees():
        svds = [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "svd"
                or isinstance(node, ast.ImportFrom) and any(a.name == "svd" for a in node.names)]
        assert len(svds) == (1 if name == "hierarchy" else 0), name
        if name == "hierarchy":
            assert not any(getattr(node, attr, None) == "_power_norm" for node in ast.walk(tree)
                           for attr in ("name", "id", "attr"))
