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
smaller maximum arity on the term's surviving vertices.  It stays on
bitmasks: leftover pairs join a copy of the adjacency rows, and larger
leftovers feed a nested counter over the same rows and vertex mask, so
the recursion bottoms out in the plain-graph engine without relabeling.

Matchings whose span exceeds k, or would contain a graph edge, are
pruned; their terms vanish.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from . import cliques
from .hypergraph import Hypergraph, _mask, _vertices, induced, underlying_graph


class _InvalidCounter:
    """Shared state for one inclusion-exclusion count, on bitmasks only.

    `rows` are pair adjacency rows (index v-1, bit u-1), `alive` the
    vertex mask the count runs inside, and `edge_masks` the ordered edge
    masks.  Masks of three or more vertices are the large edges; each
    keeps its 1-based list position as its index.
    """

    def __init__(
        self, rows: Sequence[int], alive: int, edge_masks: Sequence[int], k: int
    ) -> None:
        self.k = k
        self.adj = rows
        self.full = alive
        # Per large edge, in order: span mask, span neighborhood, whether
        # the span is independent, and the constraints induced by earlier
        # intersecting large edges, as their leftover masks.
        self.span: dict[int, int] = {}
        self.nbrs: dict[int, int] = {}
        self.internally_ok: dict[int, bool] = {}
        self.actions: dict[int, list[int]] = {}
        # Position lookup for the saturated-span shortcut, keyed by the
        # sorted vertex tuple.
        self.pos_of: dict[tuple[int, ...], int] = {}
        incident: dict[int, list[int]] = {}
        for idx, m in enumerate(edge_masks, start=1):
            if m.bit_count() < 3:
                continue
            vs = _vertices(m)
            nb = 0
            for v in vs:
                nb |= rows[v - 1]
            earlier: set[int] = set()
            for v in vs:
                earlier.update(incident.setdefault(v, []))
                incident[v].append(idx)
            self.span[idx] = m
            self.nbrs[idx] = nb & ~m
            self.internally_ok[idx] = nb & m == 0
            self.actions[idx] = [self.span[p] & ~m for p in sorted(earlier)]
            self.pos_of[tuple(vs)] = idx
        self.big_sizes = sorted({m.bit_count() for m in self.span.values()})

    def candidates(self) -> list[int]:
        return [
            idx
            for idx, m in self.span.items()
            if self.internally_ok[idx] and m.bit_count() <= self.k
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
        # An earlier edge inside the span kills the term; leftovers of one
        # vertex outside it are forbidden, larger ones become edges.
        forbidden = span_mask
        leftovers: list[int] = []
        for idx in members:
            forbidden |= self.nbrs[idx]
            for rmask in self.actions[idx]:
                rem = rmask & ~span_mask
                if rem == 0:
                    return 0
                if rem & (rem - 1):
                    leftovers.append(rem)
                else:
                    forbidden |= rem
        universe = self.full & ~forbidden
        if universe.bit_count() < k2:
            return 0
        # Leftover pairs join a copy of the rows; larger leftovers are the
        # residual's large edges, counted by a nested counter.
        rows = list(self.adj)
        hypers: set[int] = set()
        for rem in leftovers:
            if rem & ~universe:
                continue
            if rem.bit_count() == 2:
                low = rem & -rem
                rows[low.bit_length() - 1] |= rem ^ low
                rows[(rem ^ low).bit_length() - 1] |= low
            else:
                hypers.add(rem)
        base = cliques.count_k_is_masks(rows, universe, k2)
        if not hypers or base == 0 or k2 < 3:
            return base
        bad = _InvalidCounter(rows, universe, sorted(hypers), k2).run()
        result = base - bad
        assert result >= 0, f"negative residual count {result} ({base} - {bad})"
        return result

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
    rows = underlying_graph(H).adjacency
    return _InvalidCounter(rows, (1 << H.n) - 1, H.edge_masks, k).run()


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
    shrunk = dict.fromkeys(e - {v} if len(e) >= 3 else e for e in H.edges)
    keep = [u for u in range(1, H.n + 1) if u not in gone]
    return induced(Hypergraph(H.n, tuple(shrunk)), keep)


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
