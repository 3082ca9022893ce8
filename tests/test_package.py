"""The package's public name list, import boundaries and source."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import sparsekis

SRC = Path(sparsekis.__file__).parent

# The CSP side, which no k-IS entry point may execute.
CSP_SIDE = ("csp", "nand_impl", "oracle", "reductions", "cli")


def _defined_at_top(module: str) -> set[str]:
    """Names a module's own top-level statements define (imports excluded)."""
    names = set()
    for node in ast.parse((SRC / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_all_names_resolve_once():
    names = sparsekis.__all__
    assert len(names) == len(set(names))
    for name in names:
        if name == "__version__":
            continue
        module = sparsekis._SOURCE[name]
        assert name in _defined_at_top(module), (name, module)
        own = vars(sys.modules[f"sparsekis.{module}"])[name]
        assert getattr(sparsekis, name) is own, name
    assert set(names) <= set(dir(sparsekis))
    star = {}
    exec("from sparsekis import *", star)
    assert all(star[name] is getattr(sparsekis, name) for name in names)


def test_kis_entry_points_leave_the_csp_side_unexecuted():
    # A fresh interpreter, so no other test has loaded a module yet.
    # type() reads no attribute, so it does not set off a lazy load.
    edges = ((1, 2), (3, 4, 5), (2, 5, 6), (1, 6))
    H = sparsekis.Hypergraph(7, tuple(map(frozenset, edges)))
    script = (
        "import json, sys, types\n"
        "import sparsekis\n"
        "def executed():\n"
        "    return sorted(n.split('.')[1] for n, m in sys.modules.items()\n"
        "                  if n.startswith('sparsekis.') and type(m) is types.ModuleType)\n"
        f"H = sparsekis.Hypergraph(7, tuple(map(frozenset, {edges!r})))\n"
        "count = sparsekis.count_k_is_mixed(H, 3)\n"
        "yes, witness = sparsekis.decide_k_is(H, 3, want_witness=True)\n"
        "after_kis = executed()\n"
        "sparsekis.solve_csp(sparsekis.CspInstance(2, ()), 1)\n"
        "print(json.dumps([count, yes, sorted(witness), after_kis, executed()]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    count, yes, witness, after_kis, after_csp = json.loads(done.stdout)
    assert count == sparsekis.brute_count_k_is(H, 3) > 0
    assert yes and len(witness) == 3 and not any(e <= set(witness) for e in H.edges)
    assert {"errors", "hypergraph", "cliques", "kis"} <= set(after_kis)
    assert set(after_kis) <= {"errors", "hypergraph", "cliques", "kis", "turan"}
    assert not set(CSP_SIDE) & set(after_kis)
    assert "csp" in after_csp


def test_kis_side_modules_import_no_csp_side_module_at_top_level():
    # Imports inside functions (turan's sparse_csp_solve, csp's own
    # kis hand-off) run only when called; the top level runs on load.
    found = []
    for name in ("hypergraph", "cliques", "kis", "turan"):
        for node in ast.parse((SRC / f"{name}.py").read_text()).body:
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if any(part in CSP_SIDE for m in modules for part in m.split(".")):
                found.append(f"{name}.py:{node.lineno}")
    assert found == []


def test_no_assert_statements_in_the_library():
    # `python -O` strips asserts, so every check in the library must raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_solver_module_imports_the_oracle():
    # The oracle is the independent reference the solvers are checked
    # against, so no solver may run on it.
    found = []
    for name in ("csp", "turan", "kis", "nand_impl", "cliques"):
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
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
    banned = {"_fix", "_propagate", "_prune", "_drop", "build_impl_structure"}
    found = [
        a.name
        for node in ast.walk(ast.parse((SRC / "nand_impl.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name in banned
    ]
    assert found == []
