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

A large edge that contains an earlier one leaves nothing to span, so
every term through it is 0 and it is no member at all.  The terms that
close without a nested count run as numpy arrays over all large edges
at once, on their incidence matrix B, the pair adjacency A and the
overlaps B Bᵀ, all float32 products of 0/1 matrices (exact, and checked
to be), in row blocks of about a megabyte:

- depth 1 with k2 = k - |e| <= 2: the universe U is the alive vertices
  outside e, its pair neighbours and every vertex an earlier edge
  leaves alone; the term is 1, |U|, or C(|U|, 2) minus the pair edges
  and the distinct leftover pairs inside U (leftovers of three or more
  vertices fit in no 2-set).  A term outside 0..C(|U|, k2) raises
  VerificationError.  This scan, which also drops the edges holding an
  earlier one, reads for each row block only the edges before the
  block's last row.
- depth 2 with a full span (|e1| + |t| = k): the term is 1 unless some
  edge p < t inside e1 | t meets both members.  The table D of first
  one-vertex leftovers it reads (`_InvalidCounter._first_leftovers`)
  is built there, once, and only when two candidate sizes sum to k.

Every other term stays scalar (`_InvalidCounter.term`): depth 1 with
k2 >= 3 and deeper matchings take the nested count when k2 >= 3, and
close by popcount when k2 is 1 or 2; a member's leftovers, read from
its earlier edges, return 0 at once when one lies inside the span.

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
from collections import Counter, defaultdict
from typing import Optional, Sequence

import numpy as np

from . import cliques, turan
from .errors import VerificationError
from .hypergraph import Hypergraph, _block, _mask, _vertices

#: Nodes the bounded search may visit before counting takes over.
SEARCH_NODE_BUDGET = 20_000


class _Lazy(dict):
    """A dict that fills a missing key with make(key)."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: int) -> object:
        value = self[key] = self.make(key)
        return value


def _edges_by_vertex(big: Sequence[int]) -> dict[int, list[int]]:
    """The `big` masks keyed by their second-highest vertex.

    That is the one vertex at which the search's drop rule can act on
    an edge: picks rise, so at a lower vertex the edge's two highest are
    still unpicked, and at the highest its unpicked ones lie below the
    pick, where no candidate is left."""
    through: dict[int, list[int]] = defaultdict(list)
    for m in big:
        through[(m ^ (1 << (m.bit_length() - 1))).bit_length()].append(m)
    return through


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
    through = _edges_by_vertex(big)
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


#: Cells in one row block of an edges-by-edges array: 256 KB in float32,
#: about 1 MB for all the temporaries of a block.
_BLOCK_CELLS = 1 << 16


def _nonzero(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.nonzero of a 2-D mask, by way of its flat indices, which numpy
    finds several times faster."""
    flat = np.flatnonzero(mask)
    r = flat // mask.shape[1]
    return r, flat - r * mask.shape[1]


def _leftovers(span: dict[int, int], through: dict[int, list[int]], idx: int) -> list[int]:
    """What the earlier large edges meeting edge idx leave outside it."""
    m = span[idx]
    earlier = {p for v in _vertices(m) for p in through[v] if p < idx}
    return [span[p] & ~m for p in sorted(earlier)]


class _InvalidCounter:
    """Shared state for one inclusion-exclusion count.

    `rows` are pair adjacency rows (index v-1, bit u-1), `alive` the
    vertex mask the count runs inside, and `edge_masks` the ordered edge
    masks.  Masks of three or more vertices are the large edges; each
    keeps its 1-based list position as its index.  The arrays hold one
    row per large edge in the same order, and "position" is that row.

    The constructor scans the large edges once, in row blocks of the
    lower triangle of their overlap matrix: each row reads only earlier
    edges.  It keeps as candidates the edges that fit in a k-set, hold
    no pair edge and contain no earlier large edge, and sums every
    depth-1 term with at most two vertices left to choose (level1).
    `run` adds the rest; its full-span pairs build the table D they read.
    """

    def __init__(
        self, rows: Sequence[int], alive: int, edge_masks: Sequence[int], k: int
    ) -> None:
        self.k = k
        self.adj = rows
        self.full = alive
        self.span = {
            idx: m for idx, m in enumerate(edge_masks, start=1) if m.bit_count() >= 3
        }
        # Built on demand, for the members of scalar terms only.  The
        # makers hold no reference to self, so a counter is freed as
        # soon as its count ends.
        span = self.span
        through = _Lazy(lambda v: [idx for idx, m in span.items() if m >> (v - 1) & 1])
        self.nbrs = _Lazy(lambda idx: _block(rows, span[idx]) & ~span[idx])
        self.actions = _Lazy(lambda idx: _leftovers(span, through, idx))
        n = len(rows)
        m = len(self.span)
        B = cliques._bits(list(self.span.values()), n)
        self.A = cliques._bits(rows, n)
        self.Af = self.A.astype(np.float32)
        self.Bf = B.astype(np.float32)
        self.s = B.sum(1)
        self.sf = self.s.astype(np.float32)
        pair_nbrs = cliques._product(self.Bf, self.Af) > 0
        # Each edge's vertices and their pair neighbours.
        self.touch = B | pair_nbrs
        # Sorted vertex columns per edge, padded with column n; Bx is B
        # with that column set, flattened, so it reads Bx[pos * (n+1) + v].
        self.V = cliques._columns(B)
        self.Bx = np.concatenate([B, np.ones((m, 1), dtype=bool)], axis=1).ravel()
        self.alive_row = cliques._bits([alive], n)[0]
        self.level1 = 0
        fit = np.flatnonzero(~(B & pair_nbrs).any(1) & (self.s <= k))
        dead = np.zeros(len(fit), dtype=bool)
        step = max(1, _BLOCK_CELLS // max(m, 1))
        for lo in range(0, len(fit), step):
            dead[lo:lo + step], terms = self._scan(fit[lo:lo + step])
            self.level1 += terms
        self.cand_pos = fit[~dead]
        order = list(self.span)
        self.cands = [order[p] for p in self.cand_pos]
        self.cand_sizes = self.s[self.cand_pos].tolist()
        self.smin = min(self.cand_sizes, default=0)

    def _scan(self, block: np.ndarray) -> tuple[np.ndarray, int]:
        """Flag the edges at the ascending positions `block` that contain
        an earlier edge; returns the flags and the sum of the depth-1
        terms with k2 <= 2 of the others.  Only the edges before the
        block's last row are read."""
        n, k = len(self.adj), self.k
        hi = block[-1]
        before = self.Bf[:hi]
        # A cell whose edge p is not earlier than its row's edge keeps
        # left = |p| >= 3, so only earlier edges match 0, 1 or 2 below.
        earlier = np.arange(hi) < block[:, None]
        left = self.sf[:hi] - cliques._product(self.Bf[block], before.T, earlier)
        dead = (left == 0).any(1)
        k2 = k - self.s[block]
        bulk = ~dead & (k2 <= 2)
        if not bulk.any():
            return dead, 0
        # An earlier edge leaving one vertex forbids it (its other
        # vertices lie in e, forbidden anyway), and one leaving two
        # forbids that pair.
        single = (left == 1).astype(np.float32)
        forbidden = self.touch[block] | (cliques._product(single, before) > 0)
        universe = self.alive_row & ~forbidden
        size = universe.sum(1)
        pairs = bulk & (k2 == 2)
        lost = np.zeros(len(block), dtype=np.int64)
        if pairs.any():
            uf = universe.astype(np.float32)
            inside = (cliques._product(uf, self.Af) * uf).sum(1, dtype=np.float64)
            lost += (inside // 2).astype(np.int64)
            in_universe = cliques._product(uf, before.T) == 2
            r, p = _nonzero((left == 2) & in_universe & pairs[:, None])
            vp, out = self._outside(block[r], p)
            u, v = vp[out].reshape(-1, 2).T
            # The same pair left by several edges counts once.
            uv = u * n + v
            codes = np.sort((r * (n * n) + uv)[~np.take(self.A, uv)])
            codes = codes[np.diff(codes, prepend=-1) != 0]
            lost += np.bincount(codes // (n * n), minlength=len(block))
        top = np.where(k2 == 0, 1, np.where(k2 == 1, size, size * (size - 1) // 2))
        terms = np.where(k2 == 2, top - lost, top)
        if not ((terms >= 0) & (terms <= top))[bulk].all():
            raise VerificationError("depth-1 term outside 0..C(|U|, k2)")
        return dead, int(terms[bulk].sum())

    def _outside(self, rows: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The vertex columns of the edges at positions p (V's rows), and
        which of them lie outside the edges at positions `rows`."""
        vp = np.take(self.V, p, axis=0)
        return vp, ~np.take(self.Bx, (rows * (len(self.adj) + 1))[:, None] + vp)

    def _first_leftovers(self, rows: np.ndarray) -> np.ndarray:
        """D[e, c] for e in the ascending positions `rows`: the position
        of the first edge p with p \\ e = {c}, or m if there is none.
        Edges from rows[-1] on are not read, so they count as none."""
        n, m = len(self.adj), len(self.s)
        hi = rows[-1]
        D = np.full((m, n + 1), m, dtype=np.int32)
        before = self.Bf[:hi]
        step = max(1, _BLOCK_CELLS // m)
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            overlap = cliques._product(self.Bf[block], before.T)
            r, p = _nonzero(self.sf[:hi] - overlap == 1)
            vp, out = self._outside(block[r], p)
            c = vp[out]
            np.minimum.at(D, (block[r], c), p)
        return D

    def _full_pairs(self) -> int:
        """Sum of the depth-2 terms whose span has k vertices.

        Such a term is 0 or 1: it dies on an edge p < t inside e1 | t
        that meets both members e1 < t.  p leaves one vertex outside e1
        or outside t (looked up in D), or at least two outside each.
        """
        cp = self.cand_pos
        sizes = self.s[cp]
        k = self.k
        partner = np.zeros(k + 1, dtype=bool)
        partner[sizes] = True
        first = cp[partner[k - sizes]]
        if not len(first):
            return 0
        # Every member of a full-span pair is in `first`, and each test
        # reads D only at positions below t <= first[-1].
        D = self._first_leftovers(first)
        targets = self.Bf[cp].T
        wide = bool(((self.s >= 4) & (self.s <= k)).any())
        total = 0
        step = max(1, _BLOCK_CELLS // len(cp))
        for lo in range(0, len(first), step):
            block = first[lo:lo + step]
            apart = cliques._product(self.touch[block].astype(np.float32), targets) == 0
            ok = apart & (cp > block[:, None]) & (sizes == k - self.s[block][:, None])
            r, c = _nonzero(ok)
            e1, t = block[r], cp[c]
            bad = self._leaves_one(D, e1, t, t) | self._leaves_one(D, t, e1, t)
            if wide:
                bad |= self._split_kills(block, r, t)
            total += len(t) - int(bad.sum())
        return total

    def _leaves_one(self, D: np.ndarray, e: np.ndarray, q: np.ndarray,
                    t: np.ndarray) -> np.ndarray:
        """Row-wise over the positions e, q, t: whether D has an edge
        p < t with p \\ e = {c} for a vertex c of q.  One flat lookup in
        D per vertex column of q."""
        base = e * D.shape[1]
        hit = np.zeros(len(t), dtype=bool)
        for col in np.take(self.V, q, axis=0).T:
            hit |= np.take(D, base + col) < t
        return hit

    def _split_kills(self, block: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        """For the pairs (block[r], t): whether an edge p < t with two or
        more vertices in each member lies inside their union."""
        overlap = cliques._product(self.Bf[block], self.Bf.T)
        qr, qp = _nonzero((overlap >= 2) & (self.sf - overlap >= 2) & (self.s <= self.k))
        per_row = np.bincount(qr, minlength=len(block))
        # Join each pair with every such edge of its first member: qr is
        # sorted, so row i's edges sit at qp[first[i]:first[i] + per_row[i]].
        first = np.cumsum(per_row) - per_row
        count = per_row[r]
        pair = np.repeat(np.arange(len(r)), count)
        q = np.arange(len(pair)) + np.repeat(first[r] - (np.cumsum(count) - count), count)
        p, tt = qp[q], t[pair]
        outside_t = self._outside(tt, p)[1].sum(1)
        hit = (p < tt) & (outside_t == overlap[qr[q], p])
        bad = np.zeros(len(t), dtype=bool)
        bad[pair[hit]] = True
        return bad

    def term(self, members: list[int], span_mask: int, span_size: int) -> int:
        """Count independent k-sets containing the span and avoiding every
        earlier large edge that touches a member."""
        k2 = self.k - span_size
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
        if k2 == 0:
            return 1
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
        k, span = self.k, self.span
        total = self.level1 - self._full_pairs()
        for t, idx in enumerate(self.cands):
            sm, size = span[idx], self.cand_sizes[t]
            if k - size > 2:
                total += self.term([idx], sm, size)
            if size + self.smin < k:
                total += self._deeper(t + 1, [idx], sm, size, sm | self.nbrs[idx], -1)
        return total

    def _deeper(self, start: int, members: list[int], span_mask: int,
                span_size: int, blocked: int, sign: int) -> int:
        """Signed sum of the scalar terms of the matchings that extend
        `members` by candidates from list position `start` on, leaving
        out the full-span pairs the arrays count.  A member descends only
        while the smallest span still fits."""
        k, span, cands, sizes = self.k, self.span, self.cands, self.cand_sizes
        total = 0
        for t in range(start, len(cands)):
            idx = cands[t]
            sm = span[idx]
            size2 = span_size + sizes[t]
            if sm & blocked or size2 > k or size2 == k and len(members) == 1:
                continue
            members.append(idx)
            total += sign * self.term(members, span_mask | sm, size2)
            if size2 + self.smin <= k:
                total += self._deeper(t + 1, members, span_mask | sm, size2,
                                      blocked | sm | self.nbrs[idx], -sign)
            members.pop()
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
    if k < 0:
        raise ValueError(f"negative k {k}")
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
