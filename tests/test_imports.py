"""Imports under src/zeroleak: every one is used, and start-up stays light.

The first tests stand in for a linter's unused-import rule, using only the
standard library.  A name a package `__init__.py` lists in `__all__` counts
as used, because that file imports it to re-export it.

The start-up guard imports `zeroleak.cli` in a fresh interpreter.  Every
CLI call pays that import, so it must not load the modules that code
generation and source introspection need, nor `importlib.resources`, which
the shipped fixtures do not need to be read, nor `argparse` and the
`gettext` it pulls in, which the CLI's own table parser replaces.  It must
still load every module that the benchmark's tracer assigns a layer, because
the tracer wraps only the functions of modules in `sys.modules` by then.
Here "loaded" means registered: `rationals`, `lp`, `programs`, `leakage` and
`oracle` are lazy modules, in `sys.modules` from the start, whose bodies run
when one of their attributes is first read.  The tracer's `vars()` reads
them, so it still wraps every layer.

Graph-only calls (`alpha`, `info`, `mis`, `product`) must run none of the
lazy modules, calls that solve no LP (the oracle's seeded trials,
`leakage-eval`, `merge`) must not run `lp` or `programs`, and every public
name of the package must still resolve.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "zeroleak"
MODULES = sorted(SOURCE.rglob("*.py"))
HEAVY_AT_START_UP = (
    "dataclasses", "inspect", "ast", "dis", "tokenize", "importlib.resources", "argparse", "gettext"
)


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


def _tracer_layer_map() -> dict:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYER_OF_MODULE" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no LAYER_OF_MODULE")


def test_cli_import_is_light_and_eager():
    probe = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import json, zeroleak.cli; print(json.dumps(sorted(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout))
    assert [name for name in HEAVY_AT_START_UP if name in loaded] == []
    traced = [name for name in _tracer_layer_map() if name.startswith("zeroleak.")]
    assert traced and [name for name in traced if name not in loaded] == []


LAZY = ("zeroleak.rationals", "zeroleak.lp", "zeroleak.programs", "zeroleak.leakage", "zeroleak.oracle")
GRAPH_ONLY = [
    ["alpha", "--graph", "fixture:c5"],
    ["info", "--graph", "fixture:petersen"],
    ["mis", "--graph", "fixture:c7"],
    ["product", "--graph", "fixture:c5", "--graph", "fixture:k2", "--op", "and"],
]


def _probe(code: str):
    """The JSON that code prints last, run by a fresh `python -S` on src/."""
    code = f"import json, sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{code}"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_graph_only_calls_run_no_lazy_module():
    # a lazy module's own __dict__, read without loading it, holds only the
    # dunder names of its spec until its body runs
    found = _probe(f"""
from zeroleak.cli import main
codes = [main(argv) for argv in {GRAPH_ONLY!r}]
ran = [name for name in {LAZY!r}
       if any(not key.startswith("__") for key in object.__getattribute__(sys.modules[name], "__dict__"))]
print(json.dumps([codes, ran, [name for name in ("random", "fractions") if name in sys.modules]]))
""")
    assert found == [[0] * len(GRAPH_ONLY), [], []]


NO_LP = [
    ["oracle", "multi-guess-floor", "--graph", "fixture:c5", "--t", "2", "--trials", "5"],
    ["oracle", "merge-closure", "--graph", "fixture:c5", "--trials", "5"],
    ["leakage-eval", "--graph", "fixture:c5", "--mapping", "MAPPING"],
    ["merge", "--graph", "fixture:c5", "--mapping", "MAPPING", "0", "2"],
]


def test_calls_without_an_lp_run_neither_lp_nor_programs(tmp_path):
    # the identity scheme on C5: vertices 0 and 2 are not adjacent, so they merge
    mapping = tmp_path / "identity.json"
    rows = [["1/1" if u == v else "0/1" for v in range(5)] for u in range(5)]
    mapping.write_text(json.dumps({"t": 1, "codewords": [str(v) for v in range(5)], "rows": rows}))
    calls = [[str(mapping) if arg == "MAPPING" else arg for arg in argv] for argv in NO_LP]
    found = _probe(f"""
from zeroleak.cli import main
codes = [main(argv) for argv in {calls!r}]
ran = [name for name in ("zeroleak.lp", "zeroleak.programs")
       if any(not key.startswith("__") for key in object.__getattribute__(sys.modules[name], "__dict__"))]
print(json.dumps([codes, ran]))
""")
    assert found == [[0] * len(NO_LP), []]


def test_every_public_name_resolves_to_its_home_object():
    # each name is the object that every zeroleak module binding it holds,
    # and a star import gives them all
    found = _probe("""
import zeroleak
modules = [module for name, module in list(sys.modules.items()) if name.startswith("zeroleak.")]
bad = [name for name in zeroleak.__all__
       if any(vars(module).get(name, value) is not value for value in [getattr(zeroleak, name)] for module in modules)]
star = {}
exec("from zeroleak import *", star)
print(json.dumps([bad, sorted(set(zeroleak.__all__) - star.keys())]))
""")
    assert found == [[], []]
