"""Constructive solvers for the sparse regime.

Below the density cutoff a greedy sweep suffices: repeatedly take a
lowest-degree vertex and discard its neighborhood, or, in the constraint
setting, a variable whose incident constraints are all slack enough to
absorb setting it true.  Both abstain rather than guess when the
instance is too dense for the guarantee.

The graph sweep runs on adjacency bitmask rows inside an `alive` vertex
mask (`find_k_is_masks`), so `kis` calls it on the rows it already
holds; `find_k_is_sparse` is the thin wrapper for a `Graph`.

The constraint greedy (`sparse_csp_solve`) keys table classes by the
table alone, looks each function object up once, keeps one list of
constraint ids per variable, and works out per-table degrees only for
the variable it is testing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence

from .csp import ConstraintFunction, CspInstance, specialize, u_min
from .errors import VerificationError
from .hypergraph import Graph, _vertices

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
    for f, _ in phi.constraints:
        if f.table[0] != 1:
            raise ValueError(f"function {f.name!r} is not 0-valid")
    if k < 0:
        raise ValueError(f"negative k {k}")
    if k > phi.n:
        return NO_GUARANTEE
    if k == 0:
        return frozenset()

    # Constraints refer to table classes by index; a table's length fixes
    # its arity, so the table alone keys a class.  Each function object
    # is looked up once: the instance's functions live as long as it does,
    # and specialize caches the ones made here.
    class_of: dict[int, int] = {}
    index: dict[tuple[int, ...], int] = {}
    fns: list[ConstraintFunction] = []  # one function per class
    umin: list[int] = []
    count: list[int] = []  # live constraints per class

    def class_index(f: ConstraintFunction) -> int:
        c = class_of.get(id(f))
        if c is None:
            c = index.get(f.table)
            if c is None:
                c = index[f.table] = len(fns)
                fns.append(f)
                umin.append(u_min(f))
                count.append(0)
            class_of[id(f)] = c
        return c

    cons: list[Optional[tuple[int, tuple[int, ...]]]] = [
        (class_index(f), vs) for f, vs in phi.constraints
    ]
    # Ids of the constraints that held each variable, dropped ones too;
    # only variables some constraint touches get an entry.
    incidence: defaultdict[int, list[int]] = defaultdict(list)
    for cid, (c, vs) in enumerate(cons):  # type: ignore[misc]
        count[c] += 1
        for v in vs:
            incidence[v].append(cid)

    def families() -> int:
        return max(1, sum(1 for m_f in count if m_f))

    n0 = phi.n
    n_families = families()
    for c, m_f in enumerate(count):
        if m_f and 2 * k * n_families * m_f > n0 ** umin[c]:
            return NO_GUARANTEE

    def slack(v: int, n_f: int, n_i: int) -> bool:
        # Per-table degrees of v over its live constraints.
        deg: dict[int, int] = {}
        for cid in incidence.get(v, ()):
            con = cons[cid]
            if con is not None:
                deg[con[0]] = deg.get(con[0], 0) + 1
        return all(umin[c] != 1 and d * n_i <= n_f * count[c] for c, d in deg.items())

    chosen: set[int] = set()
    for _ in range(k):
        n_f = families()
        n_i = phi.n - len(chosen)
        pick = next(
            (v for v in range(1, phi.n + 1) if v not in chosen and slack(v, n_f, n_i)),
            None,
        )
        if pick is None:
            return NO_GUARANTEE
        chosen.add(pick)
        for cid in incidence.get(pick, ()):
            con = cons[cid]
            if con is None:
                continue
            c, vs = con
            cons[cid] = None
            count[c] -= 1
            g = specialize(fns[c], vs.index(pick) + 1, 1)
            if g.is_constant_true:
                continue
            if g.is_constant_false:
                raise VerificationError("0-validity lost during specialization")
            c = class_index(g)
            count[c] += 1
            rest = tuple(v for v in vs if v != pick)
            for v in rest:
                incidence[v].append(len(cons))
            cons.append((c, rest))

    picked = frozenset(chosen)
    if len(picked) != k:
        raise VerificationError(f"greedy picked {len(picked)} variables, want {k}")
    if not phi.satisfied_by(picked):
        raise VerificationError("greedy assignment fails verification")
    return picked
