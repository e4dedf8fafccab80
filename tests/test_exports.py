"""Public names: each module's __all__ resolves, and the package re-exports
only names its source modules declare public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import moffo

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
