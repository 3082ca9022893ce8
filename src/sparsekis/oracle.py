"""Exhaustive reference implementations.

Everything here works straight from the definitions by scanning k-subsets,
deliberately sharing no machinery with the production solvers, so the two
can be checked against each other.  A hard cap on the number of subsets
keeps accidental blowups loud instead of slow.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Optional

from .csp import CspInstance
from .errors import ResourceLimit
from .hypergraph import Hypergraph

#: Refuse scans beyond this many k-subsets; read at call time.
ORACLE_CAP = 20_000_000


def _guard(n: int, k: int) -> None:
    if k < 0:
        raise ValueError(f"negative k {k}")
    total = comb(n, k) if k <= n else 0
    if total > ORACLE_CAP:
        raise ResourceLimit("exhaustive subset scan", total, ORACLE_CAP)


def brute_count_k_is(H: Hypergraph, k: int) -> int:
    """Count k-subsets of vertices containing no edge of any arity."""
    _guard(H.n, k)
    if k > H.n:
        return 0
    masks = H.edge_masks
    count = 0
    for combo in itertools.combinations(range(H.n), k):
        sub = 0
        for v in combo:
            sub |= 1 << v
        if all(em & ~sub for em in masks):
            count += 1
    return count


def brute_count_invalid(H: Hypergraph, k: int) -> int:
    """Count k-subsets independent in the arity-2 edges but covering some larger edge."""
    _guard(H.n, k)
    if k > H.n:
        return 0
    pair_masks = [m for e, m in zip(H.edges, H.edge_masks) if len(e) == 2]
    big_masks = [m for e, m in zip(H.edges, H.edge_masks) if len(e) >= 3]
    count = 0
    for combo in itertools.combinations(range(H.n), k):
        sub = 0
        for v in combo:
            sub |= 1 << v
        if all(m & ~sub for m in pair_masks) and any(not (m & ~sub) for m in big_masks):
            count += 1
    return count


def brute_solve_csp(phi: CspInstance, k: int) -> Optional[tuple[int, ...]]:
    """First weight-k satisfying assignment in lexicographic order, or None."""
    _guard(phi.n, k)
    if k > phi.n:
        return None
    tables = [(f.table, vs) for f, vs in phi.constraints]
    for combo in itertools.combinations(range(1, phi.n + 1), k):
        chosen = set(combo)
        ok = True
        for table, vs in tables:
            j = 0
            for p, v in enumerate(vs):
                if v in chosen:
                    j |= 1 << p
            if not table[j]:
                ok = False
                break
        if ok:
            return combo
    return None
