"""Definitional reference for branch-and-bound and easy-constraint propagation.

`sparsekis.csp` branches and propagates on constraint lists in the
caller's own variable ids, with alive and forced-true masks, and builds
a checked `CspInstance` only at its boundary.  This is the same
procedure that builds, renumbers and validates a whole instance on every
fixing, kept here so tests can pin the leaves without sharing that code.
"""

from __future__ import annotations

from typing import Optional

from sparsekis import CspInstance
from sparsekis.csp import BranchLeaf, forced_false_positions, specialize


def set_variables(inst: CspInstance, fixed: dict[int, int]) -> Optional[CspInstance]:
    """Drop the fixed variables, renumbering the rest; None on contradiction."""
    kept = [v for v in range(1, inst.n + 1) if v not in fixed]
    new_id = {v: i + 1 for i, v in enumerate(kept)}
    out = []
    for f, vs in inst.constraints:
        g = f
        for p in range(len(vs), 0, -1):
            if vs[p - 1] in fixed:
                g = specialize(g, p, fixed[vs[p - 1]])
        if g.is_constant_true:
            continue
        if g.is_constant_false:
            return None
        out.append((g, tuple(new_id[v] for v in vs if v not in fixed)))
    return CspInstance(
        len(kept), tuple(out), labels=tuple(inst.label_of(v) for v in kept)
    )


def preprocess_easy(phi: CspInstance) -> Optional[CspInstance]:
    """Fix pinned-false variables to a fixed point; None on contradiction."""
    inst = phi
    while True:
        forced = {vs[p - 1] for f, vs in inst.constraints for p in forced_false_positions(f)}
        if not forced:
            return inst
        inst = set_variables(inst, dict.fromkeys(forced, 0))
        if inst is None:
            return None


def branch_and_bound(phi: CspInstance, k: int) -> list[BranchLeaf]:
    """Set each variable of the first all-false-violated constraint true
    in turn, to depth k; the leaves are the 0-valid instances."""
    leaves = []

    def rec(inst: CspInstance, budget: int, forced: frozenset[int]) -> None:
        viol = next((c for c in inst.constraints if c[0].table[0] == 0), None)
        if viol is None:
            leaves.append(BranchLeaf(inst, budget, forced))
            return
        if budget == 0:
            return
        for v in viol[1]:
            child = set_variables(inst, {v: 1})
            if child is not None:
                rec(child, budget - 1, forced | {inst.label_of(v)})

    rec(phi, k, frozenset())
    return leaves

