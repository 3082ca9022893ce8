"""Counting and deciding k-independent sets in mixed-arity hypergraphs.

The count splits as (independent k-sets of the underlying graph) minus
(those that swallow some arity >= 3 edge).  The subtracted part is an
inclusion-exclusion over matchings of large edges: a term for matching S
counts the independent k-sets forced to contain V(S) while excluded from
containing any earlier large edge that touches S.  Each such exclusion
collapses, given V(S) is in the set, to a constraint on the leftover
vertices of the touching edge; leftovers of one vertex delete it, larger
leftovers become new (smaller) edges, and whatever still straddles V(S)
is shrunk by it.  The residual problem is a hypergraph of strictly
smaller maximum arity, so the evaluation recurses and bottoms out in the
plain-graph engine.

Matchings whose span exceeds k, or would contain a graph edge, are
pruned; their terms vanish.
"""

from __future__ import annotations

import itertools
from typing import Optional

from . import cliques
from .hypergraph import Hypergraph, _mask, _vertices, induced, underlying_graph


class _InvalidCounter:
    """Shared state for one count_invalid run."""

    def __init__(self, H: Hypergraph, k: int) -> None:
        self.k = k
        self.adj = underlying_graph(H).adjacency
        self.full = (1 << H.n) - 1
        # Large edges in order, with span masks and span neighborhoods.
        self.big: list[tuple[int, frozenset[int]]] = [
            (i + 1, e) for i, e in enumerate(H.edges) if len(e) >= 3
        ]
        self.span = {}
        self.nbrs = {}
        self.internally_ok = {}
        for idx, e in self.big:
            m = _mask(e)
            self.span[idx] = m
            nb = 0
            ok = True
            for v in e:
                av = self.adj[v - 1]
                if av & m:
                    ok = False
                nb |= av
            self.nbrs[idx] = nb & ~m
            self.internally_ok[idx] = ok
        # Position lookup for the saturated-span shortcut, keyed by the
        # sorted vertex tuple, plus the ascending arity menu.
        self.pos_of = {tuple(sorted(e)): idx for idx, e in self.big}
        self.big_sizes = sorted({len(e) for _, e in self.big})
        # Per large edge: constraints induced by earlier intersecting
        # large edges, as (leftover mask, leftover set).
        incident: dict[int, list[int]] = {}
        pos_edge = dict(self.big)
        self.actions: dict[int, list[tuple[int, frozenset[int]]]] = {}
        for idx, e in self.big:
            earlier: set[int] = set()
            for v in e:
                earlier.update(p for p in incident.get(v, ()) if p < idx)
            acts = []
            for p in sorted(earlier):
                rest = pos_edge[p] - e
                acts.append((_mask(rest), rest))
            self.actions[idx] = acts
            for v in e:
                incident.setdefault(v, []).append(idx)

    def candidates(self) -> list[int]:
        return [
            idx
            for idx, e in self.big
            if self.internally_ok[idx] and len(e) <= self.k
        ]

    def term(self, members: list[int], span_mask: int, span_size: int) -> int:
        """Count independent k-sets containing the span and avoiding every
        earlier large edge that touches a member."""
        k2 = self.k - span_size
        if k2 == 0:
            # The span is the whole set, so the only way the term dies is
            # an earlier large edge inside it: one intersecting a member
            # that comes later in the order.  Scan the span's subsets.
            span_vs = _vertices(span_mask)
            pos_of = self.pos_of
            span = self.span
            for size in self.big_sizes:
                if size > span_size:
                    break
                for sub in itertools.combinations(span_vs, size):
                    p = pos_of.get(sub)
                    if p is None:
                        continue
                    sm = _mask(sub)
                    for m in members:
                        if p < m and span[m] & sm:
                            return 0
            return 1
        deleted = 0
        leftovers: list[tuple[int, int]] = []  # (mask outside span, popcount)
        for idx in members:
            for rmask, rest in self.actions[idx]:
                if len(rest) == 1:
                    deleted |= rmask
                else:
                    rem = rmask & ~span_mask
                    if rem == 0:
                        return 0
                    leftovers.append((rem, rem.bit_count()))
        if deleted & span_mask:
            return 0
        forbidden = span_mask | deleted
        for idx in members:
            forbidden |= self.nbrs[idx]
        for rem, pc in leftovers:
            if pc == 1:
                forbidden |= rem
        universe = self.full & ~forbidden
        if universe.bit_count() < k2:
            return 0
        # Leftover pairs join the graph rows; larger leftovers make the
        # residual a hypergraph, which needs the relabeled recursion.
        rows = list(self.adj)
        hypers: set[int] = set()
        for rem, pc in leftovers:
            if pc < 2 or rem & ~universe:
                continue
            if pc == 2:
                low = rem & -rem
                rows[low.bit_length() - 1] |= rem ^ low
                rows[(rem ^ low).bit_length() - 1] |= low
            else:
                hypers.add(rem)
        if not hypers:
            return cliques.count_k_is_masks(rows, universe, k2)
        old_ids = _vertices(universe)
        new_id = {v: i + 1 for i, v in enumerate(old_ids)}
        edge_list = [
            frozenset((new_id[u], new_id[v]))
            for v in old_ids
            for u in _vertices(rows[v - 1] & universe & ((1 << (v - 1)) - 1))
        ]
        for h in sorted(hypers, key=_vertices):
            edge_list.append(frozenset(new_id[v] for v in _vertices(h)))
        return count_k_is_hypergraph(
            Hypergraph(len(old_ids), tuple(edge_list)), k2
        )

    def run(self) -> int:
        cands = self.candidates()
        max_size = (self.k + 2) // 3
        total = 0
        span, nbrs, term, k = self.span, self.nbrs, self.term, self.k
        ncands = len(cands)

        def rec(start: int, members: list[int], span_mask: int,
                span_size: int, blocked: int, sign: int) -> None:
            nonlocal total
            deeper = len(members) + 1 < max_size
            for t in range(start, ncands):
                idx = cands[t]
                sm = span[idx]
                if sm & blocked:
                    continue
                size2 = span_size + sm.bit_count()
                if size2 > k:
                    continue
                members.append(idx)
                total += sign * term(members, span_mask | sm, size2)
                if deeper:
                    rec(t + 1, members, span_mask | sm, size2,
                        blocked | sm | nbrs[idx], -sign)
                members.pop()

        rec(0, [], 0, 0, 0, 1)
        return total


def count_invalid(H: Hypergraph, k: int) -> int:
    """Independent k-sets of the underlying graph that contain a large edge."""
    if k < 3 or not any(len(e) >= 3 for e in H.edges):
        return 0
    return _InvalidCounter(H, k).run()


def count_k_is_hypergraph(H: Hypergraph, k: int) -> int:
    """Exact number of k-sets containing no edge of any arity."""
    if k < 0:
        raise ValueError(f"negative k {k}")
    base = cliques.count_k_is(underlying_graph(H), k)
    if base == 0:
        # Invalid sets are independent in the graph, so none exist either.
        return 0
    bad = count_invalid(H, k)
    result = base - bad
    assert result >= 0, f"negative count {result} ({base} - {bad})"
    return result


def _sparse_arities(H: Hypergraph, k: int) -> set[int]:
    """Arity classes routed through inclusion-exclusion.

    Class i is sparse when m_i^((k-i+3)/3) <= m_i * n^(k-i); compared
    with both sides cubed, in exact integers, ties to sparse.
    """
    out = set()
    n = H.n
    for arity, m_i in H.arity_counts.items():
        if arity < 3:
            continue
        if m_i ** (k - arity + 3) <= m_i**3 * n ** (3 * (k - arity)):
            out.add(arity)
    return out


def count_k_is_mixed(H: Hypergraph, k: int) -> int:
    """Same value as count_k_is_hypergraph via the sparse/dense arity split.

    Dense arity classes skip inclusion-exclusion: their edges are
    enumerated directly with all extensions, deduplicated by charging
    each false solution to its earliest dense edge.
    """
    if k < 0:
        raise ValueError(f"negative k {k}")
    H = H.sorted_by_arity()
    # Edges too big to fit in a k-set constrain nothing.
    if any(len(e) > k for e in H.edges):
        H = Hypergraph(H.n, tuple(e for e in H.edges if len(e) <= k))
    sparse = _sparse_arities(H, k)
    dense_edges = [
        (i + 1, e)
        for i, e in enumerate(H.edges)
        if len(e) >= 3 and len(e) not in sparse
    ]
    backbone = Hypergraph(
        H.n,
        tuple(e for e in H.edges if len(e) == 2 or len(e) in sparse),
    )
    base = count_k_is_hypergraph(backbone, k)
    if not dense_edges:
        return base
    G = underlying_graph(H)
    adj = G.adjacency
    big_sparse = [m for e, m in zip(H.edges, H.edge_masks)
                  if len(e) >= 3 and len(e) in sparse]
    dense_masks = [(pos, _mask(e)) for pos, e in dense_edges]
    bad = 0
    for which, (pos, e) in enumerate(dense_edges):
        emask = dense_masks[which][1]
        if any(adj[v - 1] & emask for v in e):
            continue
        others = [v for v in range(1, H.n + 1) if v not in e]
        need = k - len(e)
        if need < 0:
            continue
        for ext in itertools.combinations(others, need):
            x = emask | _mask(ext)
            ok = True
            for v in ext:
                if adj[v - 1] & x:
                    ok = False
                    break
            if not ok:
                continue
            if any(sm & ~x == 0 for sm in big_sparse):
                continue
            minimal = True
            for pos2, m2 in dense_masks[:which]:
                if m2 & ~x == 0:
                    minimal = False
                    break
            if minimal:
                bad += 1
    result = base - bad
    assert result >= 0, f"negative mixed count {result} ({base} - {bad})"
    return result


def _restrict_to_vertex(H: Hypergraph, v: int) -> tuple[Hypergraph, tuple[int, ...]]:
    """Condition on v being in the set: drop its graph neighborhood and
    shrink large edges through v; relabeled, with old_ids returned."""
    gone = {v}
    for e in H.edges:
        if len(e) == 2 and v in e:
            gone |= e
    keep = [u for u in range(1, H.n + 1) if u not in gone]
    new_id = {u: i + 1 for i, u in enumerate(keep)}
    alive = set(keep)
    out: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for e in H.edges:
        if len(e) >= 3 and v in e:
            e = e - {v}
        if not e <= alive:
            continue
        mapped = frozenset(new_id[u] for u in e)
        if mapped not in seen:
            seen.add(mapped)
            out.append(mapped)
    return Hypergraph(len(keep), tuple(out)), tuple(keep)


def decide_k_is(
    H: Hypergraph, k: int, want_witness: bool = False
) -> tuple[bool, Optional[frozenset[int]]]:
    """YES iff some k-set contains no edge; optionally builds one.

    The witness comes from counting-based self-reduction: vertex 1 is
    deleted whenever a solution avoids it, otherwise it is committed and
    the instance conditioned on it.  The witness is re-checked against
    the original hypergraph before returning.
    """
    if count_k_is_mixed(H, k) == 0:
        return False, None
    if not want_witness:
        return True, None
    chosen: list[int] = []
    cur = H
    ids = tuple(range(1, H.n + 1))
    budget = k
    while budget > 0:
        dropped, old = induced(cur, range(2, cur.n + 1))
        if count_k_is_mixed(dropped, budget) > 0:
            cur = dropped
            ids = tuple(ids[v - 1] for v in old)
            continue
        chosen.append(ids[0])
        cur, old = _restrict_to_vertex(cur, 1)
        ids = tuple(ids[v - 1] for v in old)
        budget -= 1
    witness = frozenset(chosen)
    assert len(witness) == k, "witness has wrong size"
    wmask = _mask(witness)
    for em in H.edge_masks:
        assert em & ~wmask != 0, "witness contains an edge"
    return True, witness
