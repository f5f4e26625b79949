import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "unimetric").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_in_library_code(path):
    # python -O strips assert statements, so checks must raise explicitly
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES + SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_only_standard_library_and_numpy(path):
    # numpy is the one runtime dependency, the selftest oracles included
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert roots - set(sys.stdlib_module_names) - {"numpy", "unimetric"} == set()


def _raised_name(exc):
    target = exc.func if isinstance(exc, ast.Call) else exc
    return target.id if isinstance(target, ast.Name) else None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_runtime_error_in_library_code(path):
    # a failed internal check raises a typed UnimetricError, which the CLI maps to exit 5
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        and _raised_name(node.exc) == "RuntimeError"
    ]
    assert lines == [], f"bare RuntimeError raised at lines {lines}"


def test_public_names_resolve():
    # __all__ is the lazy table's keys, and each name is the object its module defines
    import unimetric

    assert unimetric.__all__ == list(unimetric._EXPORTS)
    for name, module in unimetric._EXPORTS.items():
        home = importlib.import_module(f"unimetric.{module}")
        assert getattr(unimetric, name) is getattr(home, name), name
        assert getattr(home, name).__module__ == home.__name__, name
    assert unimetric._SUBMODULES == {p.stem for p in SOURCES} - {"__init__"}
    assert set(dir(unimetric)) >= set(unimetric.__all__) | unimetric._SUBMODULES
    with pytest.raises(AttributeError):
        unimetric.no_such_name


_FRESH_IMPORTS = """
import contextlib, io, json, sys

def loaded():
    return sorted(k.split(".", 1)[1] for k in sys.modules if k.startswith("unimetric."))

import unimetric
steps = {"import unimetric": loaded()}
from unimetric import cli
steps["import unimetric.cli"] = loaded()
u, v, out = sys.argv[1:]
calls = [
    ["dist", u, v],
    ["distinguish", u, v],
    ["tensor", "--d1", "0.5", "--d2", "0.5"],
    ["search", "--N", "64", "--epsilon", "0.1"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in calls]
steps["dist, distinguish, tensor, search"] = loaded()
steps["subsets"] = unimetric.subsets.__name__
with open(out, "w") as fh:
    json.dump({"codes": codes, "steps": steps}, fh)
"""


def test_subcommands_load_only_what_they_run(tmp_path):
    # a fresh process: the package loads nothing, and each handler imports what it runs
    for name, m in (("u", np.eye(2)), ("v", np.diag([1.0, 1j]))):
        flat = [[z.real, z.imag] for z in m.astype(complex).reshape(-1)]
        (tmp_path / f"{name}.json").write_text(json.dumps({"rows": 2, "cols": 2, "data": flat}))
    out = tmp_path / "out.json"
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    argv = [str(tmp_path / "u.json"), str(tmp_path / "v.json"), str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_IMPORTS, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    steps = report["steps"]
    assert report["codes"] == [0, 0, 0, 0]
    assert steps["import unimetric"] == []
    assert steps["import unimetric.cli"] == ["circlegeom", "cli", "errors", "linalg", "metrics"]
    ran = steps["dist, distinguish, tensor, search"]
    assert {"subsets", "numrange", "pauli", "acceptance"}.isdisjoint(ran), ran
    assert steps["subsets"] == "unimetric.subsets"


def _module_level_private(tree):
    """(name, node) for each module-level _name a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def test_private_names_are_used():
    # a private helper or constant nobody references is left over from a removed path
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    defined = [
        (path.name, name, node)
        for path, tree in zip(SOURCES, trees)
        for name, node in _module_level_private(tree)
        if name.startswith("_") and not name.startswith("__")
    ]
    unused = []
    for module, name, definition in defined:
        inside = {id(node) for node in ast.walk(definition)}
        used = any(
            id(node) not in inside
            and (
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and node.name == name)
            )
            for tree in trees
            for node in ast.walk(tree)
        )
        if not used:
            unused.append(f"{module}:{name}")
    assert unused == []


def test_acceptance_checks_return_once_at_their_end():
    # no check exits early, so a failing run still reports every margin
    tree = ast.parse((ROOT / "src" / "unimetric" / "acceptance.py").read_text(encoding="utf-8"))
    checks = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")
    ]
    assert len(checks) == 13
    for fn in checks:
        returns = [node for node in ast.walk(fn) if isinstance(node, ast.Return)]
        assert returns == [fn.body[-1]], fn.name
