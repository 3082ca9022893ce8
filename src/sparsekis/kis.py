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
pruned; their terms vanish.  The matching recursion descends from a
member only while the smallest candidate span still fits in the k - |span|
vertices left, so it never scans a level where nothing fits.

Most terms on small k leave a residual of k2 = k - |span| <= 2 vertices,
and those close by popcount on the term's universe U with no residual
count: k2 = 1 gives |U|, and k2 = 2 gives C(|U|, 2) minus the distinct
pairs inside U that are a pair edge or a leftover pair (leftovers of
three or more vertices fit in no 2-set).  k2 = 0 scans the span's
subsets for an earlier large edge, and k2 >= 3 takes the nested count.

Every public entry point turns H once into one form, in one pass over
its edges: pair adjacency rows, an `alive` vertex mask and the ordered
masks of the large edges that fit inside `alive` and a k-set.  Counting,
deciding, the greedy sweep and the witness all run on it; no graph is
built after that.  A witness is re-checked against H's own edge sets,
not the rows.

Deciding, building a witness, and spotting a zero count start with a
bounded DFS on the same bitmasks (`_search_k_is`): it either finds a
k-set, proves none exists, or stops after SEARCH_NODE_BUDGET nodes, and
only then do the counts run.  Every caller that wants a k-set, not a
proof of zero, goes through `_find_k_is`, which follows a budget hit
with one greedy sweep (`turan.find_k_is_masks`) before giving up.  A
budget hit searches once: `_decide` passes on to the count, and the
counting self-reduction after it works on the masks.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Optional, Sequence

from . import cliques, turan
from .errors import VerificationError
from .hypergraph import Hypergraph, _mask, _vertices

#: Nodes the bounded search may visit before counting takes over.
SEARCH_NODE_BUDGET = 20_000


def _search_k_is(
    rows: Sequence[int], alive: int, big: Sequence[int], k: int
) -> tuple[bool, Optional[int]]:
    """Bounded DFS for a k-set inside `alive` containing no edge.

    `rows` are pair adjacency rows (index v-1, bit u-1) and `big` the
    masks of the edges with 3..k vertices.  Vertices are picked in
    increasing order; a pick drops its pair neighbours from the
    candidates, and the last vertex of every large edge the pick leaves
    one vertex short of being contained.  A branch is cut when fewer
    candidates remain than vertices are still needed.

    Returns (settled, mask): (True, mask) for a k-set found, (True, None)
    when the search ran out of branches, which proves no k-set exists,
    and (False, None) when it stopped after SEARCH_NODE_BUDGET nodes.
    """
    if SEARCH_NODE_BUDGET < 1:
        return False, None
    if k == 0:
        return True, 0
    through: dict[int, list[int]] = {}
    for m in big:
        for v in _vertices(m):
            through.setdefault(v, []).append(m)
    # One frame per pick depth: [chosen, untried candidates, still needed].
    stack = [[0, alive, k]]
    nodes = 1
    while stack:
        frame = stack[-1]
        chosen, cand, need = frame
        if cand.bit_count() < need:
            stack.pop()
            continue
        bit = cand & -cand
        frame[1] = cand ^ bit
        nodes += 1
        if nodes > SEARCH_NODE_BUDGET:
            return False, None
        picked = chosen | bit
        if need == 1:
            return True, picked
        v = bit.bit_length()
        nxt = frame[1] & ~rows[v - 1]
        for m in through.get(v, ()):
            rest = m & ~picked
            if rest & (rest - 1) == 0:
                nxt &= ~rest
        stack.append([picked, nxt, need - 1])
    return True, None


def _find_k_is(
    rows: Sequence[int], alive: int, big: Sequence[int], k: int
) -> tuple[bool, Optional[int]]:
    """`_search_k_is`, plus one greedy try when it hits its budget.

    The greedy is `turan.find_k_is_masks` on the same pair rows inside
    `alive`; it always succeeds when 2 k^2 m <= n^2, where the search can
    drown under one dense vertex.  Its set counts as found only if it
    contains none of the `big` masks.  Same outcomes as `_search_k_is`.
    """
    settled, found = _search_k_is(rows, alive, big, k)
    if settled:
        return settled, found
    mask = turan.find_k_is_masks(rows, alive, k)
    if mask is None or any(m & ~mask == 0 for m in big):
        return False, None
    return True, mask


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
        size = universe.bit_count()
        if size < k2:
            return 0
        # A 1-set or 2-set holds no leftover of three or more vertices, so
        # those leaves close by popcount: a 2-set dies only on a pair edge
        # or a distinct leftover pair inside the universe.
        if k2 == 1:
            return size
        if k2 == 2:
            adj = self.adj
            inside = 0
            rest = universe
            while rest:
                low = rest & -rest
                rest ^= low
                inside += (adj[low.bit_length() - 1] & universe).bit_count()
            extra = {
                rem for rem in leftovers
                if rem & ~universe == 0 and rem.bit_count() == 2
                and adj[(rem & -rem).bit_length() - 1] & rem == 0
            }
            return size * (size - 1) // 2 - inside // 2 - len(extra)
        # Leftover pairs join a copy of the rows; larger leftovers are the
        # residual's large edges.
        rows = list(self.adj)
        hypers: set[int] = set()
        for rem in leftovers:
            if rem & ~universe:
                continue
            if rem.bit_count() == 2:
                _add_pair(rows, rem)
            else:
                hypers.add(rem)
        return _count(rows, universe, sorted(hypers), k2)

    def run(self) -> int:
        cands = self.candidates()
        total = 0
        span, nbrs, term, k = self.span, self.nbrs, self.term, self.k
        ncands = len(cands)
        # A member descends only while the smallest span could still fit.
        room = k - min((span[idx].bit_count() for idx in cands), default=0)

        def rec(start: int, members: list[int], span_mask: int,
                span_size: int, blocked: int, sign: int) -> None:
            nonlocal total
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
                if size2 <= room:
                    rec(t + 1, members, span_mask | sm, size2,
                        blocked | sm | nbrs[idx], -sign)
                members.pop()

        rec(0, [], 0, 0, 0, 1)
        return total


def _add_pair(rows: list[int], pair: int) -> None:
    """Join the two vertices of the mask `pair` in `rows`."""
    low = pair & -pair
    rows[low.bit_length() - 1] |= pair ^ low
    rows[(pair ^ low).bit_length() - 1] |= low


def _count(rows: Sequence[int], alive: int, big: Sequence[int], k: int) -> int:
    """Independent k-sets inside `alive` containing none of the `big` masks:
    the pair-graph count minus the inclusion-exclusion correction."""
    base = cliques.count_k_is_masks(rows, alive, k)
    if not big or base == 0 or k < 3:
        # Invalid sets are independent in the graph, so with a zero base
        # none exist either.
        return base
    bad = _InvalidCounter(rows, alive, big, k).run()
    result = base - bad
    if result < 0:
        raise VerificationError(f"negative count {result} ({base} - {bad}) for k = {k}")
    return result


def _sparse_arities(big: Sequence[int], n: int, k: int) -> set[int]:
    """Arity classes routed through inclusion-exclusion.

    Class i is sparse when m_i^((k-i+3)/3) <= m_i * n^(k-i); compared
    with both sides cubed, in exact integers, ties to sparse.
    """
    return {
        arity
        for arity, m_i in Counter(m.bit_count() for m in big).items()
        if m_i ** (k - arity + 3) <= m_i**3 * n ** (3 * (k - arity))
    }


def _count_mixed(rows: Sequence[int], alive: int, big: Sequence[int], k: int) -> int:
    """Same value as `_count` via the sparse/dense arity split.

    Dense arity classes skip inclusion-exclusion: their edges are
    enumerated directly with all extensions, deduplicated by charging
    each false solution to its earliest dense edge.
    """
    big = sorted(big, key=int.bit_count)
    sparse = _sparse_arities(big, alive.bit_count(), k)
    backbone = [m for m in big if m.bit_count() in sparse]
    dense = [m for m in big if m.bit_count() not in sparse]
    base = _count(rows, alive, backbone, k)
    if not dense or base == 0:
        return base
    bad = 0
    for which, emask in enumerate(dense):
        if any(rows[v - 1] & emask for v in _vertices(emask)):
            continue
        others = _vertices(alive & ~emask)
        for ext in itertools.combinations(others, k - emask.bit_count()):
            x = emask | _mask(ext)
            if any(rows[v - 1] & x for v in ext):
                continue
            if any(sm & ~x == 0 for sm in backbone):
                continue
            if all(m2 & ~x for m2 in dense[:which]):
                bad += 1
    result = base - bad
    if result < 0:
        raise VerificationError(f"negative mixed count {result} ({base} - {bad})")
    return result


def _witness_by_counting(
    rows: Sequence[int], alive: int, big: Sequence[int], k: int
) -> int:
    """Counting self-reduction on an instance with a positive count.

    The lowest vertex of `alive` is dropped whenever a solution avoids
    it, otherwise committed: its pair neighbours leave `alive`, and the
    large edges through it shrink, those left with two vertices joining
    a copy of the rows.  One count per vertex at most; returns the mask.
    """
    chosen = 0
    while k > 0:
        bit = alive & -alive
        alive ^= bit
        kept = [m for m in big if m & bit == 0]
        if _count_mixed(rows, alive, kept, k) > 0:
            big = kept
            continue
        chosen |= bit
        k -= 1
        alive &= ~rows[bit.bit_length() - 1]
        rows = list(rows)
        shrunk: dict[int, None] = {}
        for m in big:
            m &= ~bit
            if m & ~alive or m.bit_count() > k:
                continue
            if m.bit_count() == 2:
                _add_pair(rows, m)
            else:
                shrunk[m] = None
        big = list(shrunk)
    return chosen


def _decide(
    rows: Sequence[int], alive: int, big: Sequence[int], k: int,
    want_witness: bool = False,
) -> tuple[bool, Optional[int]]:
    """YES iff some k-set inside `alive` contains no pair edge and none of
    the `big` masks (those with 3..k vertices inside `alive`).

    `_find_k_is` runs once; a set it finds is the answer, and a search
    that runs out of branches proves NO.  Otherwise the count decides,
    and with `want_witness` counting self-reduction builds the set.
    Returns (answer, the set's mask or None).
    """
    settled, found = _find_k_is(rows, alive, big, k)
    if settled:
        return found is not None, found
    if _count_mixed(rows, alive, big, k) == 0:
        return False, None
    if not want_witness:
        return True, None
    return True, _witness_by_counting(rows, alive, big, k)


def _masks(H: Hypergraph, k: int) -> tuple[tuple[int, ...], int, list[int]]:
    """H as (pair adjacency rows, vertex mask, large edge masks); edges
    with more than k vertices fit in no k-set and are left out."""
    if k < 0:
        raise ValueError(f"negative k {k}")
    rows = [0] * H.n
    big = []
    for e in H.edges:
        if len(e) == 2:
            u, v = e
            rows[u - 1] |= 1 << (v - 1)
            rows[v - 1] |= 1 << (u - 1)
        elif len(e) <= k:
            big.append(_mask(e))
    return tuple(rows), (1 << H.n) - 1, big


def count_invalid(H: Hypergraph, k: int) -> int:
    """Independent k-sets of the underlying graph that contain a large edge."""
    if k < 3 or not any(len(e) >= 3 for e in H.edges):
        return 0
    return _InvalidCounter(*_masks(H, k), k).run()


def count_k_is_hypergraph(H: Hypergraph, k: int) -> int:
    """Exact number of k-sets containing no edge of any arity."""
    rows, alive, big = _masks(H, k)
    # A search that runs out of branches proves 0 without the clique engine.
    if _search_k_is(rows, alive, big, k) == (True, None):
        return 0
    return _count(rows, alive, big, k)


def count_k_is_mixed(H: Hypergraph, k: int) -> int:
    """Same value as count_k_is_hypergraph via the sparse/dense arity split."""
    rows, alive, big = _masks(H, k)
    if _search_k_is(rows, alive, big, k) == (True, None):
        return 0
    return _count_mixed(rows, alive, big, k)


def _checked(H: Hypergraph, k: int, found: int) -> frozenset[int]:
    """The k-set with mask `found`, after re-checking it against H's edges."""
    if found.bit_count() != k:
        raise VerificationError(f"witness has {found.bit_count()} vertices, want {k}")
    if found >> H.n:
        raise VerificationError("witness vertex out of range")
    witness = frozenset(_vertices(found))
    for e in H.edges:
        if e <= witness:
            raise VerificationError("witness contains an edge")
    return witness


def decide_k_is(
    H: Hypergraph, k: int, want_witness: bool = False
) -> tuple[bool, Optional[frozenset[int]]]:
    """YES iff some k-set contains no edge; optionally returns one.

    `_find_k_is` runs once: a set it finds is the answer (and the
    witness), and a search that runs out of branches proves NO.  When
    the search stops at SEARCH_NODE_BUDGET nodes and the greedy sweep
    fails too, the count decides, and the witness comes from counting
    self-reduction.  Every set found is re-checked against H's edges,
    raising VerificationError on a mismatch.
    """
    ok, found = _decide(*_masks(H, k), k, want_witness)
    witness = None if found is None else _checked(H, k, found)
    return ok, witness if want_witness else None


def witness_k_is(H: Hypergraph, k: int) -> frozenset[int]:
    """A re-checked k-set containing no edge, for an H known to have one.

    Same search and greedy as decide_k_is, then straight to counting
    self-reduction without a deciding count; a search that proves no
    k-set exists raises VerificationError, since the caller's count
    said otherwise.
    """
    rows, alive, big = _masks(H, k)
    settled, found = _find_k_is(rows, alive, big, k)
    if not settled:
        found = _witness_by_counting(rows, alive, big, k)
    elif found is None:
        raise VerificationError(f"no independent {k}-set exists")
    return _checked(H, k, found)
