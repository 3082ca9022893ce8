"""Exact k-clique and k-independent-set counting in plain graphs.

The k ≥ 3 counter splits k into three near-equal parts, materializes all
cliques of each part size, and counts triangles in the tripartite
compatibility structure; every unordered k-clique shows up once per
ordered partition into the three block sizes, so the triangle count is
divided by that exact factor.

The engine works on adjacency bitmask rows restricted to a vertex mask
`alive`, so callers that already hold rows count on a subset without
building a relabeled graph; independent sets are cliques over
complement rows formed inside `alive`.  The `Graph` entry points are
thin wrappers over it.

All arithmetic is exact.  Matrix products run in float32 row blocks,
which is lossless here: entries are 0/1, so every product entry is an
integer bounded by the inner dimension, and a ValueError guards the
2^24 limit on it.  Each block is checked to hold only such integers
(a VerificationError otherwise), summed in float64, and the totals are
accumulated in Python integers.  The triangle count and the triangle
find share that loop.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ResourceLimit, VerificationError
from .hypergraph import Graph, _vertices

#: Cliques materialized per part before giving up; three boolean
#: matrices of this side length must fit in memory.  Read at call time.
NODE_CAP = 12_000

_ROW_BLOCK = 1024


def _product_blocks(
    ab: np.ndarray, bc: np.ndarray, ac: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Check the shapes of three 0/1 matrices, then yield (lo, block)
    per block of AB rows from lo, with block = AC * (AB @ BC) on those
    rows in float32.

    Every entry is an integer in 0..inner dimension; a block with an
    entry outside that range, or not finite, raises VerificationError.
    """
    if ab.ndim != 2 or bc.ndim != 2 or ac.ndim != 2:
        raise ValueError("inputs must be matrices")
    na, nb = ab.shape
    nb2, nc = bc.shape
    if (na, nc) != ac.shape or nb != nb2:
        raise ValueError(
            f"incompatible shapes {ab.shape}, {bc.shape}, {ac.shape}"
        )
    if 0 in (na, nb, nc):
        return
    # float32 products are lossless for 0/1 inputs while the inner
    # dimension stays below 2^24.
    if nb >= 1 << 24:
        raise ValueError("inner dimension too large for exact float32 products")
    bc_f = bc.astype(np.float32)
    for lo in range(0, na, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, na)
        prod = ab[lo:hi].astype(np.float32) @ bc_f
        prod *= ac[lo:hi]
        # NaN fails both comparisons.
        if not (prod.min() >= 0 and prod.max() <= nb):
            raise VerificationError(
                f"triangle product block outside 0..{nb} or not finite"
            )
        yield lo, prod


def count_triangles_tripartite(ab, bc, ac) -> int:
    """Number of triples (a, b, c) related under all three 0/1 matrices.

    Computes sum over (a, c) of AC[a, c] * (AB @ BC)[a, c] exactly.
    """
    blocks = _product_blocks(np.asarray(ab), np.asarray(bc), np.asarray(ac))
    return sum(int(prod.sum(dtype=np.float64)) for _, prod in blocks)


def find_triangle_tripartite(ab, bc, ac) -> Optional[tuple[int, int, int]]:
    """The first triple (a, b, c) related under all three 0/1 matrices,
    or None when there is none.

    Takes the first (a, c), in row-major order, with AC[a, c] *
    (AB @ BC)[a, c] > 0, then the first b with AB[a, b] and BC[b, c].
    """
    ab = np.asarray(ab)
    bc = np.asarray(bc)
    for lo, prod in _product_blocks(ab, bc, np.asarray(ac)):
        hits = np.flatnonzero(prod)
        if hits.size:
            a, c = divmod(int(hits[0]), prod.shape[1])
            a += lo
            bs = np.flatnonzero((ab[a] != 0) & (bc[:, c] != 0))
            if not bs.size:
                raise VerificationError(f"no middle vertex for triangle pair ({a}, {c})")
            return a, int(bs[0]), c
    return None


def _cliques_of_size(
    rows: Sequence[int], alive: int, size: int
) -> tuple[list[int], list[int]]:
    """Vertex bitmasks of all size-cliques inside `alive`, with their
    common-neighbor masks (also inside `alive`); ResourceLimit past
    NODE_CAP of them."""
    masks: list[int] = []
    commons: list[int] = []

    def found(mask: int, common: int) -> None:
        masks.append(mask)
        commons.append(common)
        if len(masks) > NODE_CAP:
            raise ResourceLimit("clique part nodes", f"> {NODE_CAP}", NODE_CAP)

    def rec(mask: int, common: int, last: int, depth: int) -> None:
        if depth == size:
            found(mask, common)
            return
        cand = common & ~((1 << last) - 1)
        while cand:
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length()
            rec(mask | bit, common & rows[v - 1], v, depth + 1)

    if size == 0:
        found(0, alive)
    else:
        for v in _vertices(alive):
            rec(1 << (v - 1), rows[v - 1] & alive, v, 1)
    return masks, commons


def _pack(masks: Sequence[int], n: int) -> np.ndarray:
    words = max(1, (n + 63) // 64)
    out = np.zeros((len(masks), words), dtype=np.uint64)
    low = (1 << 64) - 1
    for i, m in enumerate(masks):
        for w in range(words):
            out[i, w] = (m >> (64 * w)) & low
    return out


def _compat(commons_x: np.ndarray, masks_y: np.ndarray) -> np.ndarray:
    """0/1 matrix: entry (i, j) set iff y-clique j lies inside x-clique i's common neighbors.

    That containment makes the union of the two cliques a clique: every
    cross pair is adjacent, and no vertex neighbors itself, so the parts
    are disjoint too.
    """
    bad = np.zeros((commons_x.shape[0], masks_y.shape[0]), dtype=bool)
    for w in range(commons_x.shape[1]):
        notc = ~commons_x[:, w]
        bad |= (notc[:, None] & masks_y[None, :, w]) != 0
    return (~bad).astype(np.uint8)


def count_k_cliques_masks(rows: Sequence[int], alive: int, k: int) -> int:
    """Exact number of k-cliques among the vertices of `alive`.

    rows[v - 1] is vertex v's neighbor bitmask (bit u - 1 for vertex u),
    symmetric and without v's own bit; bits outside `alive` are ignored.
    """
    if k < 0:
        raise ValueError(f"negative k {k}")
    if k > alive.bit_count():
        return 0
    if k == 0:
        return 1
    if k == 1:
        return alive.bit_count()
    if k == 2:
        return sum((rows[v - 1] & alive).bit_count() for v in _vertices(alive)) // 2
    a = k // 3
    c = -(-k // 3)
    b = k - a - c
    n = alive.bit_length()
    parts: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for size in {a, b, c}:
        masks, commons = _cliques_of_size(rows, alive, size)
        parts[size] = (_pack(masks, n), _pack(commons, n))
    mats: dict[tuple[int, int], np.ndarray] = {}
    for sx, sy in {(a, b), (b, c), (a, c)}:
        mats[(sx, sy)] = _compat(parts[sx][1], parts[sy][0])
    total = count_triangles_tripartite(mats[(a, b)], mats[(b, c)], mats[(a, c)])
    denom = factorial(k) // (factorial(a) * factorial(b) * factorial(c))
    if total % denom:
        raise VerificationError(f"triple count {total} not divisible by {denom}")
    return total // denom


def count_k_is_masks(adj: Sequence[int], alive: int, k: int) -> int:
    """Exact number of independent k-sets among the vertices of `alive`.

    `adj` is laid out as `rows` in count_k_cliques_masks; the count is
    the clique count over complement rows formed inside `alive`.
    """
    rows = [alive & ~a & ~(1 << i) for i, a in enumerate(adj)]
    return count_k_cliques_masks(rows, alive, k)


def count_k_cliques(G: Graph, k: int) -> int:
    """Exact number of k-vertex cliques."""
    return count_k_cliques_masks(G.adjacency, (1 << G.n) - 1, k)


def count_k_is(G: Graph, k: int) -> int:
    """Exact number of independent k-sets: clique count in the complement."""
    return count_k_is_masks(G.adjacency, (1 << G.n) - 1, k)
