"""Checks in library code must still run under ``python -O``."""

import ast
import pathlib

import parkhopf

SOURCES = sorted(pathlib.Path(parkhopf.__file__).parent.glob("*.py"))


def test_no_bare_assert_in_library():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, f"bare assert statements: {found}"
