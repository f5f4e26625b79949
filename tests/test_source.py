import ast
import pathlib
import sys

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
    # every exported name exists, and __all__ lists exactly what __init__ imports
    import unimetric

    missing = [name for name in unimetric.__all__ if not hasattr(unimetric, name)]
    assert missing == []
    init = pathlib.Path(unimetric.__file__).with_name("__init__.py")
    tree = ast.parse(init.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(unimetric.__all__) == sorted(imported)


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
