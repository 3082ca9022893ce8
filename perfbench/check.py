"""Answer checks that share no code with the library.

Witnesses and assignments are re-verified with loops over edge masks and
truth tables written here; counts come from an exhaustive enumeration
written here.  None of it calls ``Graph.is_independent`` or
``CspInstance.satisfied_by``.
"""

from __future__ import annotations

import numpy as np


def _mask(vs) -> int:
    m = 0
    for v in vs:
        m |= 1 << (v - 1)
    return m


def count_k_is(raw, k: int) -> int:
    """Number of k-subsets of 1..n containing no edge, for n <= 63.

    Grows all subsets independent in the pair edges one vertex at a time,
    in increasing vertex order, as numpy arrays of (set mask, candidate
    mask); then drops every set containing a larger edge.
    """
    n, edges = raw
    if not 0 <= n <= 63:
        raise ValueError(f"enumeration needs n <= 63, got {n}")
    if k < 0 or k > n:
        return 0
    adj = [0] * (n + 1)
    big = []
    for e in edges:
        if len(e) == 2:
            u, v = e
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
        else:
            big.append(_mask(e))
    sets = np.zeros(1, dtype=np.uint64)
    cands = np.array([(1 << n) - 1], dtype=np.uint64)
    for _ in range(k):
        grown_sets, grown_cands = [], []
        for v in range(1, n + 1):
            bit = np.uint64(1 << (v - 1))
            sel = (cands & bit) != 0
            if not sel.any():
                continue
            later = np.uint64(((1 << n) - 1) & ~((1 << v) - 1) & ~adj[v])
            grown_sets.append(sets[sel] | bit)
            grown_cands.append(cands[sel] & later)
        if not grown_sets:
            return 0
        sets = np.concatenate(grown_sets)
        cands = np.concatenate(grown_cands)
    alive = np.ones(len(sets), dtype=bool)
    for em in big:
        m = np.uint64(em)
        alive &= (sets & m) != m
    return int(alive.sum())


def witness_ok(raw, k: int, witness) -> bool:
    """True iff `witness` is k distinct vertices of 1..n containing no edge."""
    n, edges = raw
    chosen = set(witness)
    if len(chosen) != k or len(tuple(witness)) != k:
        return False
    if any(not 1 <= v <= n for v in chosen):
        return False
    w = _mask(chosen)
    return all(_mask(e) & ~w for e in edges)


def assignment_ok(raw, k: int, true_vars) -> bool:
    """True iff exactly the k distinct `true_vars` satisfy every constraint."""
    n, cons = raw
    chosen = set(true_vars)
    if len(chosen) != k or len(tuple(true_vars)) != k:
        return False
    if any(not 1 <= v <= n for v in chosen):
        return False
    for _, table, vs in cons:
        j = 0
        for p, v in enumerate(vs):
            if v in chosen:
                j |= 1 << p
        if not table[j]:
            return False
    return True
