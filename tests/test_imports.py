"""Every module-level import in the package is used (no linter runs here),
every import anywhere in it is a declared dependency, starting a run imports
nothing it does not need, the package's public names resolve, and every
config key is read.

A name counts as used when it is read anywhere in its module (as a name or
as the root of an attribute chain) or listed in a literal __all__ of the
module; the package's own __all__ is computed from its name table, and the
package binds none of those names by an import.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spindetect
from spindetect import runner
from spindetect.config import CONFIG_SCHEMA, KIND_READS, SENSITIVITY_READS, _covers

import helpers

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spindetect"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_guard_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom re import match as m\n"
                     "__all__ = ['m']\nsys.exit\n")
    unused = set(_imported_names(tree)) - _used_names(tree)
    assert unused == {"os"}
    # a computed __all__, like the package's, names nothing as used
    tree = ast.parse("import re\n_MODULE_OF = {'re': 'x'}\n__all__ = list(_MODULE_OF)\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"re"}


def _foreign_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(top-level package, line) of each import, at any depth, that is none
    of the standard library, numpy, scipy or the package itself -- the
    only dependencies pyproject.toml declares."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "scipy", "spindetect"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        found += [(root, node.lineno) for root in roots if root not in allowed]
    return found


def test_guard_sees_a_foreign_import():
    tree = ast.parse("import os, numpy as np\nfrom . import bath\n"
                     "def f():\n    import jsonschema\n    from scipy.linalg import lu\n"
                     "    from hypothesis import given\n")
    assert _foreign_imports(tree) == [("jsonschema", 4), ("hypothesis", 6)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_declared_dependencies(path):
    foreign = _foreign_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not foreign, f"{path.name}: imports outside numpy, scipy and the " \
        "standard library: " + ", ".join(f"{name} (line {line})" for name, line in foreign)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = _imported_names(tree)
    unused = sorted(set(bound) - _used_names(tree))
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {bound[name]})" for name in unused)


def _read_names(node: ast.AST) -> set[str]:
    """Names node reads, as a name or as the attribute of an expression."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _unused_private_definitions(trees: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """(module, name) of each module-level private def or class that no other
    statement of any module reads: reading itself, as a recursive function
    does, is no use."""
    reads = [(node, _read_names(node)) for tree in trees.values() for node in tree.body]
    return [(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and not any(node.name in names for stmt, names in reads if stmt is not node)]


def test_guard_sees_an_unused_private_definition():
    trees = {"a": ast.parse("def _kept(): pass\ndef _unused(): pass\n"
                            "def _recursive(n): return _recursive(n - 1)\n"
                            "class _Read: pass\ndef __getattr__(name): pass\n"
                            "def public(): return _kept()\n"),
             "b": ast.parse("import a\nvalue = a._Read\na._unused = None\n")}
    assert _unused_private_definitions(trees) == [("a", "_unused"), ("a", "_recursive")]


def test_private_definitions_are_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    unused = _unused_private_definitions(trees)
    assert not unused, "private definitions nothing reads: " + ", ".join(
        f"{module}:{name}" for module, name in unused)


def _loaded_after(code: str, cwd: Path) -> set[str]:
    """The modules a fresh interpreter holds after running code in cwd."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def _under(modules: set[str], package: str) -> list[str]:
    return sorted(m for m in modules if m == package or m.startswith(package + "."))


def test_start_up_loads_neither_jsonschema_nor_scipy_special(tmp_path):
    # config validation and the bath quadratures are self-contained; either
    # package would add tens of milliseconds to every run's start-up
    loaded = _loaded_after("import spindetect.runner, spindetect.cli", tmp_path)
    assert _under(loaded, "jsonschema") + _under(loaded, "scipy.special") == []


@pytest.mark.parametrize("code", [
    "import spindetect.cli",
    "import spindetect",
    "from spindetect.cli import main\nassert main(['validate', '--preset', 'figure1']) == 0",
], ids=["import-cli", "import-package", "validate"])
def test_import_and_validate_load_no_numpy(tmp_path, code):
    # the command line, the name table and config validation are pure Python
    assert _under(_loaded_after(code, tmp_path), "numpy") == []


@pytest.mark.parametrize("build, sparse", [
    (helpers.rates_config, False), (helpers.small_discrete_config, False),
    (helpers.small_continuum_config, False), (helpers.refined_fluorescence_config, True),
], ids=["rates", "discrete", "continuum", "fluorescence"])
def test_only_the_two_channel_run_loads_scipy_sparse(tmp_path, build, sparse):
    cfg = build()
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    loaded = _loaded_after("from spindetect.cli import main\n"
                           f"assert main([{cfg['kind']!r}, '--config', 'cfg.json', "
                           "'--out', 'out']) == 0", tmp_path)
    assert bool(_under(loaded, "scipy.sparse")) == sparse


def test_public_names_resolve_on_first_use():
    """Each name of the package's table is the object its module defines; a
    submodule import still works; an unknown name is an AttributeError."""
    for name in spindetect.__all__:
        module = importlib.import_module(f"spindetect.{spindetect._MODULE_OF[name]}")
        assert getattr(spindetect, name) is getattr(module, name), name
    from spindetect import conditional
    assert conditional is importlib.import_module("spindetect.conditional")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(spindetect, "no_such_name")


def _schema_leaves(schema: dict, path: tuple = ()):
    for key, sub in schema.get("properties", {}).items():
        if "properties" in sub:
            yield from _schema_leaves(sub, path + (key,))
        else:
            yield path + (key,)


def test_every_config_key_is_read_by_the_runner():
    """Each leaf key of CONFIG_SCHEMA appears as a string literal in
    runner.py and is read by at least one run kind of KIND_READS, and each
    path of KIND_READS is a schema path, so a knob the schema accepts cannot
    be ignored silently."""
    tree = ast.parse((PACKAGE / "runner.py").read_text(encoding="utf-8"))
    literals = {n.value for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    leaves = list(_schema_leaves(CONFIG_SCHEMA))
    # the option inventory is pinned: a new knob needs a deliberate edit here
    assert len(leaves) == 45
    unread = [".".join(p) for p in leaves if p[-1] not in literals]
    assert not unread, "config keys runner.py never names: " + ", ".join(unread)
    paths = {".".join(p[:i]) for p in leaves for i in range(1, len(p) + 1)}
    named = {path for reads in KIND_READS.values()
             for entry in reads for path in entry.lstrip("!").split("|")}
    assert named <= paths, f"KIND_READS paths outside the schema: {named - paths}"
    by_no_kind = [".".join(p) for p in leaves
                  if not any(_covers(reads, ".".join(p)) for reads in KIND_READS.values())]
    assert not by_no_kind, "config keys no run kind reads: " + ", ".join(by_no_kind)
    sensitivity = CONFIG_SCHEMA["properties"]["detector"]["properties"]["sensitivity"]
    keys = {entry.lstrip("!") for reads in SENSITIVITY_READS.values() for entry in reads}
    assert keys == set(sensitivity["properties"])


def test_the_runner_dispatches_every_run_kind():
    assert list(runner._RUNS) == list(KIND_READS)
