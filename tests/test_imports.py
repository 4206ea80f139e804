"""Every module-level import under src/zeroleak is used by its module.

A stand-in for a linter's unused-import rule, using only the standard
library.  A name a package `__init__.py` lists in `__all__` counts as used,
because that file imports it to re-export it.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "zeroleak"
MODULES = sorted(SOURCE.rglob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_module_list_is_not_empty():
    assert any(path.name == "lp.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SOURCE)))
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("from .rationals import format_ratio\nimport math\nx = math.pi\n")
    assert _unused_imports(tree) == ["format_ratio (line 1)"]
