"""The package's public name list and source."""

import ast
from pathlib import Path

import sparsekis


def test_all_names_resolve_once():
    names = sparsekis.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(sparsekis, name), name


def test_no_assert_statements_in_the_library():
    # `python -O` strips asserts, so every check in the library must raise.
    src = Path(sparsekis.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
