"""Definitional references for the two greedy solvers of sparsekis.

`turan.find_k_is_masks` runs the min-degree sweep on adjacency bitmask
rows inside an `alive` mask; `greedy_k_is` is the same sweep on a dict
of neighbour sets.  `csp._greedy` (behind `turan.sparse_csp_solve`)
runs on a CSP leaf in the caller's ids, keys table classes by index
and counts per-table degrees only for the candidate it tests;
`sparse_csp_greedy` is the same greedy that interns every constraint and
keeps every variable's per-table degrees up to date.  Both are kept here
so tests can pin the greedies' picks without sharing their code.
"""

from __future__ import annotations

from typing import Optional

from sparsekis import CspInstance, Graph
from sparsekis.csp import specialize, u_min
from sparsekis.errors import VerificationError


def greedy_k_is(G: Graph, k: int) -> Optional[frozenset[int]]:
    """Take a minimum-degree vertex (smallest id on ties), drop its closed
    neighbourhood, repeat k times; None when the vertices run out first.

    Under the premise 2 k^2 m <= n^2 every round must keep the density
    invariant, or VerificationError is raised.
    """
    if k < 0:
        raise ValueError(f"negative k {k}")
    if k == 0:
        return frozenset()
    premise = 2 * k * k * G.m <= G.n * G.n
    adj = {v: set() for v in range(1, G.n + 1)}
    for e in G.edges:
        u, v = sorted(e)
        adj[u].add(v)
        adj[v].add(u)
    alive = set(adj)
    edges_left = G.m
    chosen: list[int] = []
    for i in range(k):
        if not alive:
            return None
        if premise and 2 * (k - i) ** 2 * edges_left > len(alive) ** 2:
            raise VerificationError("density invariant broken under the premise")
        v = min(alive, key=lambda u: (len(adj[u]), u))
        chosen.append(v)
        for u in list(adj[v]) + [v]:
            if u not in alive:
                continue
            alive.discard(u)
            for w in adj[u]:
                if w in alive:
                    adj[w].discard(u)
                    edges_left -= 1
            adj[u] = set()
    picked = frozenset(chosen)
    if not G.is_independent(picked):
        raise VerificationError("greedy produced a dependent set")
    return picked


def sparse_csp_greedy(phi: CspInstance, k: int) -> Optional[frozenset[int]]:
    """Weight-k solution of a 0-valid instance, or None (no guarantee).

    Gate: 2 k |F| m_f <= n^u_min(f) for every table f.  Each round takes
    the smallest unchosen variable with no incidence at a table of u_min
    1 and per-table degree d_f with d_f n_i <= |F_i| m_f, sets it true
    and specialises its constraints into (possibly new) tables.
    """
    if k > phi.n:
        return None
    if k == 0:
        return frozenset()
    class_count: dict[tuple[int, ...], int] = {}
    tables: dict[tuple[int, ...], object] = {}
    cons: list[Optional[tuple[tuple[int, ...], tuple[int, ...]]]] = []
    incidence: dict[int, set[int]] = {}
    per_var: dict[int, dict[tuple[int, ...], int]] = {}

    def add(f, vs) -> None:
        kf = f.table
        tables.setdefault(kf, f)
        cid = len(cons)
        cons.append((kf, vs))
        class_count[kf] = class_count.get(kf, 0) + 1
        for v in vs:
            incidence.setdefault(v, set()).add(cid)
            counts = per_var.setdefault(v, {})
            counts[kf] = counts.get(kf, 0) + 1

    def drop(cid: int) -> None:
        kf, vs = cons[cid]
        cons[cid] = None
        class_count[kf] -= 1
        if class_count[kf] == 0:
            del class_count[kf]
        for v in vs:
            incidence[v].discard(cid)
            per_var[v][kf] -= 1
            if per_var[v][kf] == 0:
                del per_var[v][kf]

    for f, vs in phi.constraints:
        add(f, vs)
    families = max(1, len(class_count))
    for kf, m_f in class_count.items():
        if 2 * k * families * m_f > phi.n ** u_min(tables[kf]):
            return None
    chosen: set[int] = set()
    for _ in range(k):
        families = max(1, len(class_count))
        n_i = phi.n - len(chosen)
        pick = None
        for v in range(1, phi.n + 1):
            if v not in chosen and all(
                u_min(tables[kf]) != 1 and d * n_i <= families * class_count[kf]
                for kf, d in per_var.get(v, {}).items()
            ):
                pick = v
                break
        if pick is None:
            return None
        chosen.add(pick)
        for cid in list(incidence.get(pick, ())):
            kf, vs = cons[cid]
            g = specialize(tables[kf], vs.index(pick) + 1, 1)
            drop(cid)
            if g.is_constant_false:
                raise VerificationError("0-validity lost during specialization")
            if not g.is_constant_true:
                add(g, tuple(v for v in vs if v != pick))
    return frozenset(chosen)
