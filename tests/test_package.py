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


def test_no_solver_module_imports_the_oracle():
    # The oracle is the independent reference the solvers are checked
    # against, so no solver may run on it.
    src = Path(sparsekis.__file__).parent
    found = []
    for name in ("csp", "turan", "kis", "nand_impl", "cliques"):
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if any("oracle" in m.split(".") for m in modules):
                found.append(f"{name}.py:{node.lineno}")
    assert found == []


def test_nand_impl_fixes_variables_on_masks():
    # The pipeline reads its leaf once into rows and fixes variables by
    # mask arithmetic, so it imports none of the constraint-list steps.
    src = Path(sparsekis.__file__).parent
    banned = {"_fix", "_propagate", "_prune", "_drop", "build_impl_structure"}
    found = [
        a.name
        for node in ast.walk(ast.parse((src / "nand_impl.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name in banned
    ]
    assert found == []
