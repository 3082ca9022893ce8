"""Exact k-clique and k-independent-set counting in plain graphs.

The k ≥ 3 counter splits k into three near-equal parts, materializes all
cliques of each part size, and counts triangles in the tripartite
compatibility structure; every unordered k-clique shows up once per
ordered partition into the three block sizes, so the triangle count is
divided by that exact factor.

The engine takes adjacency bitmask rows and a vertex mask `alive`, so
callers that already hold rows count on a subset without building a
relabeled graph; independent sets are cliques over the complement
inside `alive`.  It turns the rows inside `alive` into one boolean
matrix and works on arrays from there.  A part is a pair of arrays: the
sorted vertex columns of each clique and the boolean rows of their
common neighbours, and all cliques of one size grow by one vertex at a
time from the previous size's arrays.  A compatibility matrix is the AND,
over a part's vertex columns, of row gathers from the other part's
transposed commons.  The `Graph` entry points are thin wrappers over it.

All arithmetic is exact.  Matrix products run in float32, which is
lossless here: entries are 0/1, so every product entry is an integer
bounded by the inner dimension, and a ValueError guards the 2^24 limit
on it.  Each product is checked to hold only such integers (a
VerificationError otherwise).  The triangles run over row blocks of AB
whose product output holds at most `_BLOCK_CELLS` cells; BC is
converted to float32 once, and when k is divisible by 3 the three
matrices are one, so AB's blocks are slices of that same copy.  The
blocks are summed in float64 and the totals accumulated in Python
integers.  The triangle count and the triangle find share that loop,
and `kis` uses the same checked product and block budget.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ResourceLimit, VerificationError
from .hypergraph import Graph

#: Cliques materialized per part, and per size on the way to it, before
#: giving up; at this side length the boolean compatibility matrices,
#: one float32 copy per distinct matrix and one output block must fit
#: in memory.  Read at call time.
NODE_CAP = 12_000

#: Cells in one product block's output: 256 KB in float32.  The triangle
#: blocks and `kis`'s blocked scans size their row blocks by it.
_BLOCK_CELLS = 1 << 16


def _bits(masks: Sequence[int], n: int) -> np.ndarray:
    """Boolean matrix whose row i holds masks[i], column v-1 for vertex v."""
    width = max(1, -(-n // 8))
    low = (1 << 8 * width) - 1
    raw = b"".join([(x & low).to_bytes(width, "little") for x in masks])
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def _columns(B: np.ndarray) -> np.ndarray:
    """Each row's set columns, ascending, padded with column B.shape[1]
    up to the widest row."""
    n = B.shape[1]
    cols = np.where(B, np.arange(n), n)
    cols.sort(axis=1)
    return cols[:, :B.sum(1).max(initial=0)]


def _product(a: np.ndarray, b: np.ndarray, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """a @ b for float32 0/1 matrices, times `mask` entrywise if given.

    Exact while the inner dimension stays below 2^24, since every entry
    is then an integer in 0..inner dimension; an entry outside that
    range, or not finite, raises VerificationError.
    """
    inner = a.shape[1]
    if inner >= 1 << 24:
        raise ValueError("inner dimension too large for exact float32 products")
    prod = a @ b
    if mask is not None:
        prod *= mask
    # NaN fails both comparisons.
    if prod.size and not (prod.min() >= 0 and prod.max() <= inner):
        raise VerificationError(f"product outside 0..{inner} or not finite")
    return prod


def _product_blocks(
    ab: np.ndarray, bc: np.ndarray, ac: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Check the shapes of three boolean matrices, then yield (lo, block)
    per block of AB rows from lo, with block = AC * (AB @ BC) on those
    rows in float32, checked by `_product`.  A block has at most
    _BLOCK_CELLS cells, or one row.  BC is converted once; when AB is
    BC, its row blocks are slices of that copy."""
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
    bc_f = bc.astype(np.float32)
    step = max(1, _BLOCK_CELLS // nc)
    for lo in range(0, na, step):
        rows = bc_f[lo:lo + step] if ab is bc else ab[lo:lo + step].astype(np.float32)
        yield lo, _product(rows, bc_f, ac[lo:lo + step])


def _related(ab, bc, ac) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three relation matrices as booleans: any nonzero entry relates
    its pair.  Boolean arrays pass through uncopied; a NaN or infinite
    entry raises ValueError before the cast could read it as related."""
    out = []
    for x in (ab, bc, ac):
        x = np.asarray(x)
        if x.dtype.kind in "fc" and not np.isfinite(x).all():
            raise ValueError("relation matrix holds a non-finite entry")
        out.append(x.astype(bool, copy=False))
    return tuple(out)


def count_triangles_tripartite(ab, bc, ac) -> int:
    """Number of triples (a, b, c) related under all three matrices, where
    a nonzero entry relates its pair.

    Computes sum over (a, c) of AC[a, c] * (AB @ BC)[a, c] exactly.
    """
    blocks = _product_blocks(*_related(ab, bc, ac))
    return sum(int(prod.sum(dtype=np.float64)) for _, prod in blocks)


def find_triangle_tripartite(ab, bc, ac) -> Optional[tuple[int, int, int]]:
    """The first triple (a, b, c) related under all three matrices, where
    a nonzero entry relates its pair, or None when there is none.

    Takes the first (a, c), in row-major order, with AC[a, c] *
    (AB @ BC)[a, c] > 0, then the first b with AB[a, b] and BC[b, c].
    """
    ab, bc, ac = _related(ab, bc, ac)
    for lo, prod in _product_blocks(ab, bc, ac):
        hits = np.flatnonzero(prod)
        if hits.size:
            a, c = divmod(int(hits[0]), prod.shape[1])
            a += lo
            bs = np.flatnonzero(ab[a] & bc[:, c])
            if not bs.size:
                raise VerificationError(f"no middle vertex for triangle pair ({a}, {c})")
            return a, int(bs[0]), c
    return None


def _cliques_of_size(M: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """All cliques of `size` vertices in the graph of the boolean
    adjacency matrix M, as (cols, commons): row i of cols holds clique
    i's vertices ascending, and row i of commons their common
    neighbours.  ResourceLimit when some size up to `size` has more
    than NODE_CAP cliques."""
    n = len(M)
    # Start from the empty clique; each round extends every clique by a
    # common neighbour past its last vertex.
    cols = np.zeros((1, 0), dtype=np.intp)
    commons = np.ones((1, n), dtype=bool)
    last = np.full((1, 1), -1)
    for _ in range(size):
        r, v = np.nonzero(commons & (np.arange(n) > last))
        if len(v) > NODE_CAP:
            raise ResourceLimit("clique part nodes", len(v), NODE_CAP)
        cols = np.column_stack((cols[r], v))
        commons = commons[r] & M[v]
        last = v[:, None]
    return cols, commons


def _compat(cols: np.ndarray, commons: np.ndarray) -> np.ndarray:
    """Boolean matrix: entry (j, i) set iff every column in cols[j] is
    set in commons[i]; cols holds at least one column.

    With cols the vertices of y-cliques and commons the common
    neighbours of x-cliques, that is y-clique j inside x-clique i's
    common neighbours, which makes the union of the two a clique: every
    cross pair is adjacent, and no vertex neighbours itself, so the
    parts are disjoint too.
    """
    ct = np.ascontiguousarray(commons.T)
    out = ct[cols[:, 0]]
    for c in cols.T[1:]:
        out &= ct[c]
    return out


def _count_cliques(M: np.ndarray, k: int) -> int:
    """Exact number of k-cliques in the graph of the symmetric boolean
    adjacency matrix M (zero diagonal)."""
    if k < 0:
        raise ValueError(f"negative k {k}")
    n = len(M)
    if k > n:
        return 0
    if k < 2:
        return n if k else 1
    if k == 2:
        return int(M.sum()) // 2
    a = k // 3
    c = -(-k // 3)
    b = k - a - c
    parts = {size: _cliques_of_size(M, size) for size in sorted({a, b, c})}
    # fits[(sx, sy)]: which sy-cliques (rows) fit beside which
    # sx-cliques (columns).  The triangles run c -> b -> a, so every
    # matrix is used as built.
    fits: dict[tuple[int, int], np.ndarray] = {}
    for sx, sy in {(a, b), (b, c), (a, c)}:
        fits[(sx, sy)] = _compat(parts[sy][0], parts[sx][1])
    total = count_triangles_tripartite(fits[(b, c)], fits[(a, b)], fits[(a, c)])
    denom = factorial(k) // (factorial(a) * factorial(b) * factorial(c))
    if total % denom:
        raise VerificationError(f"triple count {total} not divisible by {denom}")
    return total // denom


def _inside(rows: Sequence[int], alive: int) -> np.ndarray:
    """Boolean matrix of `rows` among the vertices of `alive`, in
    increasing order; bits outside `alive` are dropped."""
    n = alive.bit_length()
    keep = np.flatnonzero(_bits([alive], n)[0])
    return _bits(rows[:n], n)[np.ix_(keep, keep)]


def count_k_cliques_masks(rows: Sequence[int], alive: int, k: int) -> int:
    """Exact number of k-cliques among the vertices of `alive`.

    rows[v - 1] is vertex v's neighbor bitmask (bit u - 1 for vertex u),
    symmetric and without v's own bit; bits outside `alive` are ignored.
    """
    return _count_cliques(_inside(rows, alive), k)


def count_k_is_masks(adj: Sequence[int], alive: int, k: int) -> int:
    """Exact number of independent k-sets among the vertices of `alive`.

    `adj` is laid out as `rows` in count_k_cliques_masks; the count is
    the clique count over the complement inside `alive`.
    """
    M = ~_inside(adj, alive)
    np.fill_diagonal(M, False)
    return _count_cliques(M, k)


def count_k_cliques(G: Graph, k: int) -> int:
    """Exact number of k-vertex cliques."""
    return count_k_cliques_masks(G.adjacency, (1 << G.n) - 1, k)


def count_k_is(G: Graph, k: int) -> int:
    """Exact number of independent k-sets: clique count in the complement."""
    return count_k_is_masks(G.adjacency, (1 << G.n) - 1, k)
