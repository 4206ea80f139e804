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
Here "loaded" means registered: the modules that `zeroleak/__init__.py`
registers in its `_LAZY` tuple (`rationals`, `lp`, `programs`, `leakage`,
`bounds` and `oracle`) are lazy modules, in `sys.modules` from the start,
whose bodies run when one of their attributes is first read.  The tracer's
`vars()` reads them, so it still wraps every layer.

Graph-only calls (`alpha`, `info`, `mis`, `product`) must run none of the
lazy modules, calls that solve no LP (the oracle's seeded trials,
`leakage-eval`, `merge`) must not run `lp` or `programs`, the `bounds-*`
calls must not run `leakage`, the scheme calls and the oracle checks other
than the multi-guess floor must not run `bounds`, and every public name of
the package must still resolve.
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


def _lazy_modules() -> tuple:
    # the names in the tuple literal of `_LAZY = tuple(map(_register_lazily, (...)))`
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_LAZY" for t in node.targets):
            names = next(ast.literal_eval(n) for n in ast.walk(node.value) if isinstance(n, ast.Tuple))
            return tuple(f"zeroleak.{name}" for name in names)
    raise AssertionError("zeroleak/__init__.py has no _LAZY")


LAZY = _lazy_modules()
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


def _run(calls, watched, stdlib=()):
    """Exit codes of CLI calls made in one fresh interpreter, the watched lazy
    modules whose bodies ran, and the stdlib modules of `stdlib` loaded.

    A lazy module's own __dict__, read without loading it, holds only the
    dunder names of its spec until its body runs.
    """
    return _probe(f"""
from zeroleak.cli import main
codes = [main(argv) for argv in {calls!r}]
ran = [name for name in {tuple(watched)!r}
       if any(not key.startswith("__") for key in object.__getattribute__(sys.modules[name], "__dict__"))]
print(json.dumps([codes, ran, [name for name in {tuple(stdlib)!r} if name in sys.modules]]))
""")


def test_the_lazy_modules_are_read_off_the_package():
    assert LAZY[0] == "zeroleak.rationals" and {"zeroleak.leakage", "zeroleak.bounds"} <= set(LAZY)


def test_graph_only_calls_run_no_lazy_module():
    assert _run(GRAPH_ONLY, LAZY, ("random", "fractions")) == [[0] * len(GRAPH_ONLY), [], []]


NO_LP = [
    ["oracle", "multi-guess-floor", "--graph", "fixture:c5", "--t", "2", "--trials", "5"],
    ["oracle", "merge-closure", "--graph", "fixture:c5", "--trials", "5"],
    ["leakage-eval", "--graph", "fixture:c5", "--mapping", "MAPPING"],
    ["merge", "--graph", "fixture:c5", "--mapping", "MAPPING", "0", "2"],
]


BOUNDS = [
    ["bounds-multi", "--graph", "fixture:c5", "--budget", "exp:2/1"],
    ["bounds-approx", "--graph", "fixture:fig1", "--theta", "fixture:fig1_theta"],
    ["bounds-multi-approx", "--graph", "fixture:c5", "--theta", "fixture:c5", "--budget", "const:1"],
]
SCHEMES = [
    ["leakage-optimal", "--graph", "fixture:c5", "--t", "2"],
    ["leakage-eval", "--graph", "fixture:c5", "--mapping", "MAPPING"],
    ["merge", "--graph", "fixture:c5", "--mapping", "MAPPING", "0", "2"],
    ["scheme", "--graph", "fixture:c5"],
    ["oracle", "duality", "--graph", "fixture:c5"],
    ["oracle", "merge-closure", "--graph", "fixture:c5", "--trials", "5"],
]


@pytest.fixture
def with_mapping(tmp_path):
    """Calls with MAPPING replaced by the identity scheme on C5, whose
    codewords 0 and 2 merge: those vertices are not adjacent."""
    mapping = tmp_path / "identity.json"
    rows = [["1/1" if u == v else "0/1" for v in range(5)] for u in range(5)]
    mapping.write_text(json.dumps({"t": 1, "codewords": [str(v) for v in range(5)], "rows": rows}))
    return lambda calls: [[str(mapping) if arg == "MAPPING" else arg for arg in argv] for argv in calls]


def test_calls_without_an_lp_run_neither_lp_nor_programs(with_mapping):
    found = _run(with_mapping(NO_LP), ("zeroleak.lp", "zeroleak.programs"))
    assert found == [[0] * len(NO_LP), [], []]


def test_bounds_calls_run_no_scheme_code():
    assert _run(BOUNDS, ("zeroleak.leakage",)) == [[0] * len(BOUNDS), [], []]


def test_scheme_calls_run_no_bounds_code(with_mapping):
    found = _run(with_mapping(SCHEMES), ("zeroleak.bounds",))
    assert found == [[0] * len(SCHEMES), [], []]


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
