"""Definitional reference for the min-degree greedy sweep.

`sparsekis.turan` runs the sweep on adjacency bitmask rows inside an
`alive` mask.  This is the same sweep on a dict of neighbour sets, kept
here so tests can pin the greedy's picks without sharing its code.
"""

from __future__ import annotations

from typing import Optional

from sparsekis import Graph
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
