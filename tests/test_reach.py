"""Every top-level function and class of src/ptinertia has a caller outside tests/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "ptinertia").glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_src_definition_is_named_outside_tests():
    defined = {node.name: path.name for path in MODULES for node in _tree(path).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    named = set()
    for path in CALLERS:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unreached = sorted(f"{module}: {name}" for name, module in defined.items()
                       if name not in named)
    assert unreached == []


def test_star_import_finds_every_exported_name():
    # a name in __all__ that the package does not define makes the import raise
    namespace = {}
    exec("from ptinertia import *", namespace)
    assert "run_search" in namespace
