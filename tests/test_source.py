"""Properties of the library source itself."""

import ast
from pathlib import Path

import lineflags

SOURCES = sorted(Path(lineflags.__file__).parent.rglob("*.py"))


def test_no_assert_in_the_library():
    """Checks must survive ``python -O``, which strips ``assert``."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
