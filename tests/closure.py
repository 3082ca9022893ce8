"""Definitional reference for the implication closure.

`sparsekis.csp._closure` over the successor and predecessor rows of
`sparsekis.csp._read` gives descendant and ancestor masks, built in one
pass over strongly connected components.  This is
the same closure as frozensets, by depth-first search from each
variable over the implication pairs read off the constraint tables,
kept here so tests can pin the masks without sharing their code.
"""

from __future__ import annotations

from sparsekis import CspInstance
from sparsekis.csp import EQ2, IMPL, permute_arguments


def impl_edges(phi: CspInstance) -> set[tuple[int, int]]:
    """Directed implication pairs (u, v) meaning u true forces v true;
    EQ reads as two."""
    backward = permute_arguments(IMPL, (1, 0)).table
    out: set[tuple[int, int]] = set()
    for f, vs in phi.constraints:
        if f.table in (IMPL.table, EQ2.table):
            out.add((vs[0], vs[1]))
        if f.table in (backward, EQ2.table):
            out.add((vs[1], vs[0]))
    return out


def closure_sets(
    phi: CspInstance,
) -> tuple[dict[int, frozenset[int]], dict[int, frozenset[int]]]:
    """Descendant and ancestor sets per variable (each variable is its own)."""
    succ: dict[int, list[int]] = {v: [] for v in range(1, phi.n + 1)}
    for u, v in impl_edges(phi):
        succ[u].append(v)
    desc: dict[int, frozenset[int]] = {}
    for v in range(1, phi.n + 1):
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in succ[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        desc[v] = frozenset(seen)
    anc: dict[int, set[int]] = {v: set() for v in range(1, phi.n + 1)}
    for v, ds in desc.items():
        for d in ds:
            anc[d].add(v)
    return desc, {v: frozenset(s) for v, s in anc.items()}
