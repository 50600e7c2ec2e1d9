"""Rules the package source keeps, read from its syntax trees."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1]
                  / "src" / "meridian").glob("*.py"))


def test_no_assert_statement():
    # python -O strips assert, so no check may rely on one
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert "families.py" in {path.name for path in SOURCES}
    assert found == []


def test_no_private_name_imported_across_modules():
    # a module's private names are its own: what another module needs is
    # public API of the module that owns it
    found = [f"{path.name}:{node.lineno} {node.module} {alias.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.level > 0
             for alias in node.names if alias.name.startswith("_")]
    assert "curves.py" in {path.name for path in SOURCES}
    assert found == []
