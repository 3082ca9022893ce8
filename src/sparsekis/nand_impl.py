"""Decision procedure for weight-k instances of exclusion plus implication.

Variables under implication edges drag their descendant cones into any
solution, and exclusion (NAND) edges forbid co-selection.  The pipeline
peels structure until triangle counting can finish the job:

  1. restrict_instance guesses which high-fanout cones enter the
     solution, leaving every surviving variable with at most two
     descendants;
  2. remove_two_cycles guesses which mutually-implying pairs enter;
  3. the leftover order sorts into stars (a sink plus its sources),
     which partition the variables into groups a solution meets only
     via whole quotas;
  4. one branch per composition of k over chosen groups reduces to
     finding a triangle across three bins of candidate part-sets.

Everything is decision-only; callers that need an assignment wrap this
in self-reduction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Iterator, Optional, Sequence

import numpy as np

from . import cliques
from .csp import (
    CspInstance,
    _has_false,
    _rooted,
    branch_and_bound,
    build_impl_structure,
    impl_edges,
    is_impl_fn,
    is_nand_fn,
    preprocess_easy,
    set_variables,
)
from .errors import ResourceLimit
from .hypergraph import Graph, _mask, _vertices
from .turan import find_k_is_sparse

#: Part-sets materialized per bin before a branch aborts.
NODE_CAP = 200_000


def _nand_rows(phi: CspInstance) -> list[int]:
    """NAND-neighbour bitmask per variable; index v-1, bit u-1."""
    rows = [0] * phi.n
    for f, vs in phi.constraints:
        if is_nand_fn(f):
            u, v = vs
            rows[u - 1] |= 1 << (v - 1)
            rows[v - 1] |= 1 << (u - 1)
    return rows


def _clean(rows: Sequence[int], vs: Collection[int]) -> bool:
    """True iff no NAND pair lies inside `vs`."""
    m = _mask(vs)
    return all(rows[v - 1] & m == 0 for v in vs)


def restrict_instance(
    phi: CspInstance, k: int
) -> Iterator[tuple[CspInstance, int]]:
    """Branch on which heavy descendant cones the solution contains.

    A variable is heavy when its descendant set has three or more
    members.  Each emitted branch fixes the union cone D(S) of a guessed
    heavy subset S true (with |D(S)| <= k, |D(S)| >= 3|S|, and no NAND
    pair inside), deletes NAND-neighbours of the cone with all their
    ancestors, then deletes whatever is still heavy.  Some branch
    preserves each weight-k solution, with residual budget k - |D(S)|.
    """
    inst = _rooted(phi)
    structure = build_impl_structure(inst)
    rows = _nand_rows(inst)
    heavy = sorted(
        v for v in range(1, inst.n + 1) if len(structure.descendants[v]) >= 3
    )
    for size in range(0, k // 3 + 1):
        for S in itertools.combinations(heavy, size):
            cone: set[int] = set()
            for v in S:
                cone |= structure.descendants[v]
            if len(cone) > k:
                continue
            if size and len(cone) < 3 * size:
                continue
            if not _clean(rows, cone):
                continue
            blocked = 0
            for d in cone:
                blocked |= rows[d - 1]
            removed: set[int] = set()
            for b in _vertices(blocked):
                removed |= structure.ancestors[b]
            fixed = {d: 1 for d in cone}
            fixed.update({u: 0 for u in removed})
            branch = set_variables(inst, fixed)
            if branch is None:
                continue
            k_i = k - len(cone)
            branch = preprocess_easy(branch, k_i)
            if _has_false(branch):
                continue
            st2 = build_impl_structure(branch)
            still_heavy = {
                v
                for v in range(1, branch.n + 1)
                if len(st2.descendants[v]) >= 3
            }
            if still_heavy:
                branch = set_variables(branch, {v: 0 for v in still_heavy})
                if branch is None:
                    continue
                branch = preprocess_easy(branch, k_i)
                if _has_false(branch):
                    continue
            st3 = build_impl_structure(branch)
            assert all(
                len(st3.descendants[v]) <= 2 for v in range(1, branch.n + 1)
            ), "restriction left a heavy variable"
            yield branch, k_i


def _two_cycles(phi: CspInstance) -> list[frozenset[int]]:
    edges = impl_edges(phi)
    return sorted(
        {frozenset((u, v)) for u, v in edges if (v, u) in edges and u != v},
        key=sorted,
    )


def remove_two_cycles(
    phi: CspInstance, k: int
) -> Iterator[tuple[CspInstance, int]]:
    """Branch on which mutually-implying pairs the solution contains.

    In a restricted instance such pairs touch no other implication edge,
    so each is taken or dropped whole: a guessed subset of at most
    floor(k/2) NAND-free pairs is fixed true, every other cycle vertex
    false.  Residual budget drops by two per taken pair.
    """
    inst = _rooted(phi)
    cycles = _two_cycles(inst)
    if not cycles:
        yield inst, k
        return
    rows = _nand_rows(inst)
    takeable = [c for c in cycles if _clean(rows, c)]
    cycle_vertices = set().union(*cycles)
    for r in range(0, min(len(takeable), k // 2) + 1):
        for C in itertools.combinations(takeable, r):
            taken = set().union(*C) if C else set()
            fixed = {v: 1 for v in taken}
            fixed.update({v: 0 for v in cycle_vertices - taken})
            branch = set_variables(inst, fixed)
            if branch is None:
                continue
            k_j = k - 2 * r
            branch = preprocess_easy(branch, k_j)
            if _has_false(branch):
                continue
            yield branch, k_j


@dataclass(frozen=True)
class GroupPartition:
    """Star decomposition of an acyclic restricted instance.

    Sinks (two or more ancestors) with their sources form one group
    each; implication-free variables pool into a final sinkless group.
    `escape` holds a full weight-k solution when the greedy sweep found
    one inside a single group.
    """

    v_l: frozenset[int]
    v_r: frozenset[int]
    v_0: frozenset[int]
    groups: tuple[tuple[Optional[int], frozenset[int]], ...]
    escape: Optional[frozenset[int]] = None


def _greedy_in_pool(
    pool_mask: int, rows: Sequence[int], want: int
) -> Optional[frozenset[int]]:
    pool = _vertices(pool_mask)
    if want > len(pool):
        return None
    pos = {v: i + 1 for i, v in enumerate(pool)}
    # Each pool edge once, from its lower end.
    edges = [
        frozenset((pos[u], pos[v]))
        for u in pool
        for v in _vertices(rows[u - 1] & pool_mask >> u << u)
    ]
    got = find_k_is_sparse(Graph(len(pool), tuple(edges)), want)
    if got is None:
        return None
    return frozenset(pool[i - 1] for i in got)


def build_groups(phi: CspInstance, k: Optional[int] = None) -> GroupPartition:
    """Partition the variables of an acyclic restricted instance into stars.

    With k given, each group is also probed greedily for a solution
    lying wholly inside it (sink forced plus a NAND-independent rest);
    the first hit lands in `escape`.
    """
    structure = build_impl_structure(phi)
    desc = structure.descendants
    anc = structure.ancestors
    for v in range(1, phi.n + 1):
        if len(desc[v]) > 2:
            raise ValueError(f"variable {v} is heavy; restrict first")
        if len(desc[v]) == 2:
            other = next(iter(desc[v] - {v}))
            if v in desc[other]:
                raise ValueError(f"two-cycle {{{v},{other}}}; remove cycles first")
    v_r = frozenset(v for v in range(1, phi.n + 1) if len(anc[v]) >= 2)
    v_l = frozenset(
        v for v in range(1, phi.n + 1) if len(anc[v]) == 1 and len(desc[v]) == 2
    )
    v_0 = frozenset(range(1, phi.n + 1)) - v_r - v_l
    groups: list[tuple[Optional[int], frozenset[int]]] = [
        (s, frozenset(anc[s])) for s in sorted(v_r)
    ]
    if v_0:
        groups.append((None, v_0))
    escape = None
    if k is not None:
        rows = _nand_rows(phi)
        for sink, members in groups:
            if sink is None:
                got = _greedy_in_pool(_mask(members), rows, k)
                if got is not None:
                    escape = got
                    break
            else:
                if k < 1:
                    continue
                pool = _mask(members) & ~(rows[sink - 1] | 1 << (sink - 1))
                got = _greedy_in_pool(pool, rows, k - 1)
                if got is not None:
                    escape = got | {sink}
                    break
        if escape is not None:
            assert len(escape) == k
            assert _clean(rows, escape), "escape violates a NAND pair"
    return GroupPartition(v_l, v_r, v_0, tuple(groups), escape)


def balance_partition(
    parts: Sequence[int],
) -> tuple[list[int], list[int], list[int]]:
    """Spread parts 1..len-2 of an ascending list over three bins.

    Largest-first, always into the lightest bin; the two final parts are
    left out for the caller to distribute.  Pairwise bin-sum difference
    is at most the largest binned part.
    """
    if list(parts) != sorted(parts):
        raise ValueError("parts must be sorted ascending")
    bins: tuple[list[int], list[int], list[int]] = ([], [], [])
    sums = [0, 0, 0]
    for i in range(len(parts) - 2, 0, -1):
        t = min(range(3), key=lambda j: (sums[j], j))
        bins[t].append(i)
        sums[t] += parts[i - 1]
    if len(parts) >= 3:
        limit = parts[len(parts) - 3]
        assert max(sums) - min(sums) <= limit, "bin imbalance exceeds largest part"
    return bins


def _chunks_for_whole(
    rows: Sequence[int], sink: Optional[int], members: frozenset[int], quota: int
) -> list[tuple[int, ...]]:
    """All ways a whole group can supply exactly `quota` vertices."""
    if sink is None:
        base = sorted(members)
        return [
            c for c in itertools.combinations(base, quota) if _clean(rows, c)
        ]
    if quota < 1:
        return []
    rest = sorted(members - {sink})
    out = []
    for c in itertools.combinations(rest, quota - 1):
        full = c + (sink,)
        if _clean(rows, full):
            out.append(full)
    return out


def _chunks_for_split(
    rows: Sequence[int],
    sink: Optional[int],
    members: frozenset[int],
    take: int,
    with_sink: bool,
) -> list[tuple[int, ...]]:
    """Ways a split group puts `take` vertices into one bin."""
    if with_sink:
        assert sink is not None
        if take < 1:
            return []
        rest = sorted(members - {sink})
        return [
            c + (sink,)
            for c in itertools.combinations(rest, take - 1)
            if _clean(rows, c + (sink,))
        ]
    base = sorted(members if sink is None else members - {sink})
    return [c for c in itertools.combinations(base, take) if _clean(rows, c)]


def _triangle_exists(
    rows: Sequence[int],
    nodes: list[list[tuple[int, ...]]],
) -> bool:
    """Tripartite check: disjoint, cross-NAND-free triple of part-sets."""
    if any(not part for part in nodes):
        return False
    masks = []
    blocks = []
    for part in nodes:
        masks.append([_mask(c) for c in part])
        blk = []
        for c in part:
            b = _mask(c)
            for v in c:
                b |= rows[v - 1]
            blk.append(b)
        blocks.append(blk)

    def compat(i: int, j: int):
        out = np.zeros((len(masks[i]), len(masks[j])), dtype=np.uint8)
        for a, ba in enumerate(blocks[i]):
            row = out[a]
            for b, mb in enumerate(masks[j]):
                # ba covers both disjointness and (symmetric) NAND hits.
                if mb & ba == 0:
                    row[b] = 1
        return out

    ab = compat(0, 1)
    bc = compat(1, 2)
    ac = compat(0, 2)
    return cliques.count_triangles_tripartite(ab, bc, ac) > 0


def _distributions(total: int, has_sink: bool) -> Iterator[tuple[tuple[int, int, int], Optional[int]]]:
    """Ways to spread `total` vertices of a split group over three bins,
    tagging which bin receives the sink (None for sinkless groups)."""
    for c1 in range(total + 1):
        for c2 in range(total + 1 - c1):
            c = (c1, c2, total - c1 - c2)
            if not has_sink:
                yield c, None
            else:
                for t in range(3):
                    if c[t] >= 1:
                        yield c, t


def _solve_acyclic(phi: CspInstance, k: int) -> bool:
    if _has_false(phi):
        return False
    if k == 0:
        return True
    if k > phi.n:
        return False
    gp = build_groups(phi, k)
    if gp.escape is not None:
        return True
    rows = _nand_rows(phi)
    groups = list(gp.groups)

    def pool_count(chosen: list[tuple[Optional[int], frozenset[int]]]) -> bool:
        forced = [s for s, _ in chosen if s is not None]
        if not _clean(rows, forced):
            return False
        k_rest = k - len(forced)
        if k_rest < 0:
            return False
        pool = 0
        for s, members in chosen:
            pool |= _mask(members if s is None else members - {s})
        for s in forced:
            pool &= ~(rows[s - 1] | 1 << (s - 1))
        return cliques.count_k_is_masks(rows, pool, k_rest) > 0

    for g in groups:
        if pool_count([g]):
            return True
    for g1, g2 in itertools.combinations(groups, 2):
        if pool_count([g1, g2]):
            return True

    def capacity(g: tuple[Optional[int], frozenset[int]]) -> int:
        return len(g[1])

    lo = k // 3
    hi = -(-k // 3)
    for ell in range(3, min(k, len(groups)) + 1):
        for combo in itertools.combinations(range(len(groups)), ell):
            caps = [capacity(groups[i]) for i in combo]
            for quotas in _compositions(k, ell, caps):
                order = sorted(
                    range(ell),
                    key=lambda i: (
                        quotas[i],
                        groups[combo[i]][0] or 0,
                    ),
                )
                parts = [quotas[i] for i in order]
                bins = balance_partition(parts)
                sums = [sum(parts[i - 1] for i in bn) for bn in bins]
                split1 = order[ell - 2]
                split2 = order[ell - 1]
                g1s, g1m = groups[combo[split1]]
                g2s, g2m = groups[combo[split2]]
                q1 = quotas[split1]
                q2 = quotas[split2]
                if not _clean(rows, [s for s in (g1s, g2s) if s is not None]):
                    continue
                for c1, t1 in _distributions(q1, g1s is not None):
                    for c2, t2 in _distributions(q2, g2s is not None):
                        loads = [sums[t] + c1[t] + c2[t] for t in range(3)]
                        if not all(lo <= x <= hi for x in loads):
                            continue
                        if _branch_triangle(
                            rows, groups, combo, order, quotas, bins,
                            (split1, c1, t1), (split2, c2, t2),
                        ):
                            return True
    return False


def _compositions(total: int, ell: int, caps: list[int]) -> Iterator[tuple[int, ...]]:
    """Quotas >= 1 per chosen group, bounded by capacity, summing to total."""

    def rec(i: int, left: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if i == ell:
            if left == 0:
                yield tuple(acc)
            return
        remaining_min = ell - i - 1
        top = min(caps[i], left - remaining_min)
        for q in range(1, top + 1):
            acc.append(q)
            yield from rec(i + 1, left - q, acc)
            acc.pop()

    yield from rec(0, total, [])


def _branch_triangle(
    rows: Sequence[int],
    groups: list[tuple[Optional[int], frozenset[int]]],
    combo: tuple[int, ...],
    order: list[int],
    quotas: tuple[int, ...],
    bins: tuple[list[int], list[int], list[int]],
    split_a: tuple[int, tuple[int, int, int], Optional[int]],
    split_b: tuple[int, tuple[int, int, int], Optional[int]],
) -> bool:
    """Materialize the three bins' part-sets for one branch and test."""
    sa, ca, ta = split_a
    sb, cb, tb = split_b
    nodes: list[list[tuple[int, ...]]] = []
    for t in range(3):
        chunk_lists: list[list[tuple[int, ...]]] = []
        for idx in bins[t]:
            gi = order[idx - 1]
            sink, members = groups[combo[gi]]
            chunk_lists.append(
                _chunks_for_whole(rows, sink, members, quotas[gi])
            )
        for (si, c, tpos) in (
            (sa, ca, ta),
            (sb, cb, tb),
        ):
            sink, members = groups[combo[si]]
            take = c[t]
            if take == 0:
                continue
            chunk_lists.append(
                _chunks_for_split(rows, sink, members, take, tpos == t)
            )
        part: list[tuple[int, ...]] = [()]
        for chunks in chunk_lists:
            if not chunks:
                part = []
                break
            nxt = []
            for base in part:
                for c in chunks:
                    joined = base + c
                    if _clean(rows, joined):
                        nxt.append(joined)
                if len(nxt) > NODE_CAP:
                    raise ResourceLimit("triangle part-sets", f"> {NODE_CAP}", NODE_CAP)
            part = nxt
        nodes.append(part)
    return _triangle_exists(rows, nodes)


def solve_restricted(phi: CspInstance, k: int) -> bool:
    """Decide a restricted instance: guess two-cycle pairs, then the
    group/triangle machinery on each acyclic branch."""
    for branch, k_j in remove_two_cycles(phi, k):
        if _solve_acyclic(branch, k_j):
            return True
    return False


def solve_nand_impl(phi: CspInstance, k: int) -> bool:
    """Decide weight-k satisfiability over exclusion and implication.

    Accepts any binary instance whose meaningful constraints are NAND,
    implication, or equality shaped (equality is split into two
    implications); pinning constraints are propagated and violated
    all-false constraints branched away first.
    """
    from .csp import _eq_to_impl, impl_prune

    phi = CspInstance(phi.n, phi.constraints)
    if k < 0 or k > phi.n:
        return False
    for leaf in branch_and_bound(phi, k):
        inst = preprocess_easy(leaf.instance, leaf.k)
        if _has_false(inst):
            continue
        if leaf.k == 0:
            return True
        if leaf.k > inst.n:
            continue
        inst = preprocess_easy(impl_prune(_eq_to_impl(inst), leaf.k), leaf.k)
        if _has_false(inst):
            continue
        for f, _ in inst.constraints:
            if not (is_nand_fn(f) or is_impl_fn(f)):
                raise ValueError(f"unsupported constraint {f.name!r}")
        for rbranch, k_i in restrict_instance(inst, leaf.k):
            if solve_restricted(rbranch, k_i):
                return True
    return False
