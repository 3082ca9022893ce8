"""Definitional reference for the implication closure.

`sparsekis.csp.build_impl_structure` returns descendant and ancestor
masks built by frontier expansion.  This is the same closure as
frozensets, by depth-first search from each variable, kept here so tests
can pin the masks without sharing their code.
"""

from __future__ import annotations

from sparsekis import CspInstance
from sparsekis.csp import impl_edges


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
