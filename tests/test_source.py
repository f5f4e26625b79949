import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "unimetric").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_in_library_code(path):
    # python -O strips assert statements, so checks must raise explicitly
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at lines {lines}"


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
