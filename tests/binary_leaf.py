"""Definitional reference for the binary leaf solver.

`sparsekis.csp` reads a 0-valid binary leaf once into pin, implication
and NAND masks, and propagates, prunes and searches on those masks.
This is the same procedure on constraint lists: propagation fixes pinned
variables with `_fix` rounds, and the implication edges, NAND rows and
closure are rebuilt from the list at each step.  It also keeps
branching without the packing bound, so tests can pin solve_csp's
answers, witnesses and routes without sharing its code.

The table predicates and `classify` sort a binary family by exact truth
tables, where `csp` takes each table through one cached reading: a
table is NAND, an implication or an equality when its table is exactly
that one, and a table whose whole effect is pinning arguments false is
ignored.
"""

from __future__ import annotations

from typing import Optional

from closure import impl_edges
from sparsekis import csp, kis, nand_impl
from sparsekis.csp import (
    SEARCH_STATE_CAP,
    ConstraintFunction,
    CspInstance,
    Regime,
    _fix,
    _Leaf,
    _root,
    _subset_sum_pick,
    forced_false_positions,
    s_min,
)
from sparsekis.errors import ResourceLimit
from sparsekis.hypergraph import _block, _mask, _vertices

_NAND = (1, 1, 1, 0)
_IMPL_FWD = (1, 0, 1, 1)
_IMPL_BWD = (1, 1, 0, 1)
_EQ = (1, 0, 0, 1)


def is_nand_fn(f: ConstraintFunction) -> bool:
    return f.arity == 2 and f.table == _NAND


def is_impl_fn(f: ConstraintFunction) -> bool:
    return f.arity == 2 and f.table in (_IMPL_FWD, _IMPL_BWD)


def is_eq_fn(f: ConstraintFunction) -> bool:
    return f.arity == 2 and f.table == _EQ


def is_easy_fn(f: ConstraintFunction) -> bool:
    """Whether f only pins some arguments false: every row with its
    forced-false positions at 0 satisfies it."""
    forced = _mask(forced_false_positions(f))
    return bool(forced) and all(b for j, b in enumerate(f.table) if not j & forced)


def classify(funcs: list[ConstraintFunction]) -> Regime:
    """The regime of a family of arity <= 2 tables, by the predicates."""
    work = [
        f for f in funcs
        if not f.is_constant_true and not f.is_constant_false and not is_easy_fn(f)
    ]
    if any(is_nand_fn(f) for f in work):
        rest = [f for f in work if not is_nand_fn(f)]
        if not rest:
            return Regime("KIS")
        return Regime("Clique", offset=min(s_min(f) for f in rest))
    if any(is_impl_fn(f) for f in work):
        return Regime("Subexponential")
    return Regime("Linear")


def branch(phi: CspInstance, k: int) -> list[_Leaf]:
    """The 0-valid leaves of branching on the first all-false-violated
    constraint, to depth k."""
    leaves: list[_Leaf] = []

    def rec(leaf: _Leaf) -> None:
        viol = next((c for c in leaf.constraints if c[0].table[0] == 0), None)
        if viol is None:
            leaves.append(leaf)
            return
        if leaf.k == 0:
            return
        for v in viol[1]:
            cons = _fix(leaf.constraints, {v: 1})
            if cons is not None:
                bit = 1 << (v - 1)
                rec(_Leaf(leaf.n, cons, leaf.alive & ~bit, leaf.k - 1, leaf.forced | bit))

    rec(_root(phi, k))
    return leaves


def nand_rows(leaf: _Leaf) -> list[int]:
    rows = [0] * leaf.n
    for f, vs in leaf.constraints:
        if is_nand_fn(f):
            u, v = vs
            rows[u - 1] |= 1 << (v - 1)
            rows[v - 1] |= 1 << (u - 1)
    return rows


def closure(leaf: _Leaf) -> tuple[list[int], list[int]]:
    """Descendant and ancestor masks by frontier expansion per variable."""
    succ = [0] * leaf.n
    for u, v in impl_edges(leaf):
        succ[u - 1] |= 1 << (v - 1)
    desc = []
    anc = [0] * leaf.n
    for i in range(leaf.n):
        seen = frontier = 1 << i
        while frontier:
            frontier = _block(succ, frontier) & ~seen
            seen |= frontier
        desc.append(seen)
        for u in _vertices(seen):
            anc[u - 1] |= 1 << i
    return desc, anc


def drop(leaf: _Leaf, dead: int) -> Optional[_Leaf]:
    cons = _fix(leaf.constraints, dict.fromkeys(_vertices(dead), 0))
    return None if cons is None else leaf._replace(constraints=cons, alive=leaf.alive & ~dead)


def propagate(leaf: _Leaf) -> Optional[_Leaf]:
    """Fix every pinned variable false, to a fixed point."""
    while True:
        pinned = _mask(vs[p - 1] for f, vs in leaf.constraints for p in forced_false_positions(f))
        if not pinned:
            return leaf
        leaf = drop(leaf, pinned)
        if leaf is None:
            return None


def tighten(leaf: _Leaf) -> Optional[_Leaf]:
    """Delete what an over-budget or NAND-holding descendant set rules
    out, then propagate."""
    desc, anc = closure(leaf)
    rows = nand_rows(leaf)
    bad = 0
    for i, d in enumerate(desc):
        if d.bit_count() > leaf.k:
            bad |= 1 << i
        elif _block(rows, d) & d:
            bad |= anc[i]
    leaf = drop(leaf, bad) if bad else leaf
    return None if leaf is None else propagate(leaf)


def eq_components(leaf: _Leaf) -> list[list[int]]:
    """Union-find components of the EQ graph over the alive variables,
    in order of least member."""
    parent = list(range(leaf.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f, vs in leaf.constraints:
        if not is_eq_fn(f):
            raise ValueError(f"non-EQ constraint {f.name!r} in EQ-only instance")
        parent[find(vs[0])] = find(vs[1])
    comps: dict[int, list[int]] = {}
    for v in _vertices(leaf.alive):
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


def closed_set_search(leaf: _Leaf, k: int, state_cap: int) -> Optional[int]:
    """DFS over NAND-free unions of the alive variables' descendant sets."""
    desc, _ = closure(leaf)
    rows = nand_rows(leaf)
    gens = [
        (m, b)
        for i, m in enumerate(desc)
        if leaf.alive >> i & 1 and (b := _block(rows, m)) & m == 0
    ]
    explored: dict[int, int] = {}
    budget = [state_cap]

    def rec(current: int, blocked: int, start: int) -> Optional[int]:
        if current.bit_count() == k:
            return current
        if budget[0] <= 0:
            raise ResourceLimit("closed-set search states", state_cap + 1, state_cap)
        budget[0] -= 1
        for i in range(start, len(gens)):
            m, b = gens[i]
            if m & ~current == 0 or m & blocked:
                continue
            nxt = current | m
            if nxt.bit_count() > k:
                continue
            prev = explored.get(nxt)
            if prev is not None and prev <= i + 1:
                continue
            explored[nxt] = i + 1
            got = rec(nxt, blocked | b, i + 1)
            if got is not None:
                return got
        return None

    got = rec(0, 0, 0)
    return None if got is None else leaf.forced | got


def solve_leaf_binary(leaf: _Leaf, regime: Regime) -> Optional[int]:
    """One 0-valid binary leaf: the mask of its true set, or None."""
    leaf = propagate(leaf)
    if leaf is None:
        return None
    k = leaf.k
    if k == 0:
        return leaf.forced
    if k > leaf.alive.bit_count():
        return None
    if regime.kind == "Linear":
        comps = eq_components(leaf)
        picked = _subset_sum_pick([len(c) if len(c) <= k else k + 1 for c in comps], k)
        return None if picked is None else leaf.forced | _mask(v for i in picked for v in comps[i])
    if regime.kind == "Subexponential":
        leaf = tighten(leaf)
        if leaf is None or k > leaf.alive.bit_count():
            return None
        return closed_set_search(leaf, k, SEARCH_STATE_CAP)
    if impl_edges(leaf):
        leaf = tighten(leaf)
        if leaf is None:
            return None
        if impl_edges(leaf):
            try:
                return closed_set_search(leaf, k, csp.NAND_IMPL_STATE_CAP)
            except ResourceLimit:
                return nand_impl._solve_leaf(leaf)
    ok, found = kis._decide(nand_rows(leaf), leaf.alive, (), k, True)
    return leaf.forced | found if ok else None
