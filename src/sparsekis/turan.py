"""Constructive solvers for the sparse regime.

Below the density cutoff a greedy sweep suffices: repeatedly take a
lowest-degree vertex and discard its neighborhood, or, in the constraint
setting, a variable whose incident constraints are all slack enough to
absorb setting it true.  Both abstain rather than guess when the
instance is too dense for the guarantee.

The graph sweep runs on adjacency bitmask rows inside an `alive` vertex
mask (`find_k_is_masks`), so `kis` calls it on the rows it already
holds; `find_k_is_sparse` is the thin wrapper for a `Graph`.

The constraint greedy lives in `csp` as `_greedy`, which `solve_csp`
runs on its branch leaves in the caller's own variable ids;
`sparse_csp_solve` is the thin public wrapper that checks its input,
runs it on the whole instance and verifies the answer; it loads `csp`
when it is called, so the graph sweep that `kis` runs never does.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .errors import VerificationError
from .hypergraph import Graph, _vertices

if TYPE_CHECKING:
    from .csp import CspInstance

__all__ = [
    "find_k_is_sparse",
    "sparse_csp_solve",
    "NO_GUARANTEE",
]

#: Returned by sparse_csp_solve when its density premise fails; callers
#: fall through to the general solvers.
NO_GUARANTEE = None


def find_k_is_masks(rows: Sequence[int], alive: int, k: int) -> Optional[int]:
    """Greedy independent k-set inside `alive`: take a minimum-degree
    vertex, drop its closed neighborhood, repeat.

    rows[v - 1] is vertex v's pair neighbor bitmask (bit u - 1 for vertex
    u), symmetric and without v's own bit; bits outside `alive` are
    ignored.  Succeeds whenever m <= n^2 / (2 k^2) on the graph inside
    `alive`; on denser graphs it may return None when the vertices run
    out early.  Ties go to the smallest vertex id, and the returned mask
    is verified independent.
    """
    if k < 0:
        raise ValueError(f"negative k {k}")
    if k == 0:
        return 0
    edges_left = sum((rows[v - 1] & alive).bit_count() for v in _vertices(alive)) // 2
    premise = 2 * k * k * edges_left <= alive.bit_count() ** 2
    chosen = 0
    for i in range(k):
        if not alive:
            return None
        if premise and 2 * (k - i) ** 2 * edges_left > alive.bit_count() ** 2:
            raise VerificationError("density invariant broken under the premise")
        v = min(_vertices(alive), key=lambda u: (rows[u - 1] & alive).bit_count())
        chosen |= 1 << (v - 1)
        for u in _vertices((rows[v - 1] | 1 << (v - 1)) & alive):
            alive &= ~(1 << (u - 1))
            edges_left -= (rows[u - 1] & alive).bit_count()
    if any(rows[v - 1] & chosen for v in _vertices(chosen)):
        raise VerificationError("greedy produced a dependent set")
    return chosen


def find_k_is_sparse(G: Graph, k: int) -> Optional[frozenset[int]]:
    """`find_k_is_masks` on all of G's vertices, as a vertex set."""
    got = find_k_is_masks(G.adjacency, (1 << G.n) - 1, k)
    return None if got is None else frozenset(_vertices(got))


def sparse_csp_solve(phi: CspInstance, k: int) -> Optional[frozenset[int]]:
    """Build a weight-k solution of a 0-valid instance greedily, or abstain.

    Requires every constraint function to be 0-valid.  The guarantee
    needs each table's constraint count m_f to satisfy
    2 k |F| m_f <= n^u_min(f); when that gate fails, or some round finds
    no variable whose incident constraints are slack (no incidences at
    tables with u_min 1, and per-table degree at most |F| m_f / n), the
    answer is NO_GUARANTEE.  Rounds set the chosen variable true and
    specialize its constraints, adding the resulting tables as new
    classes.  Any returned assignment is verified against phi.
    """
    from .csp import _greedy, _root

    for f, _ in phi.constraints:
        if f.table[0] != 1:
            raise ValueError(f"function {f.name!r} is not 0-valid")
    if k < 0:
        raise ValueError(f"negative k {k}")
    got = _greedy(_root(phi, k))
    if got is None:
        return NO_GUARANTEE
    picked = frozenset(_vertices(got))
    if len(picked) != k or not phi.satisfied_by(picked):
        raise VerificationError("greedy assignment fails verification")
    return picked
