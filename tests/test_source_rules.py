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
