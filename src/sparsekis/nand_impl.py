"""Decision procedure for weight-k instances of exclusion plus implication.

Variables under implication edges drag their descendant cones into any
solution, and exclusion (NAND) edges forbid co-selection.  The pipeline
peels structure until triangle counting can finish the job:

  1. restrict_instance guesses which high-fanout cones enter the
     solution, leaving every surviving variable with at most two
     descendants; cones are ORs of the descendant masks
     `csp.build_impl_structure` returns, and a cone is clean when its
     NAND neighbours (`_block` over the NAND rows) miss it;
  2. remove_two_cycles guesses which mutually-implying pairs enter;
  3. the leftover order sorts into stars (a sink plus its sources),
     which partition the variables into groups a solution meets only
     via whole quotas;
  4. solutions inside one or two groups are a k-IS question on the
     groups' NAND rows, settled by `kis._decide` (search, then count);
  5. one branch per composition of k over three or more chosen groups
     reduces to finding a triangle across three bins of candidate
     part-sets.  Each part-set is a (mask, block) pair, block = mask |
     NAND neighbours, as `cliques` keeps (mask, common) pairs, and the
     compat matrices come from `cliques._compat` on packed masks.  A
     group's chunk list depends only on (group, take, whole), so each
     is built once per acyclic instance and shared by every branch.

Equality constraints read as two implications in every step, so an
instance is taken with its EQs as they are.

The pipeline decides only.  `csp` first searches the leaf for a
NAND-free union of descendant sets, which gives an assignment directly;
only when that search hits its state cap does it call the pipeline, and
then recovers an assignment by self-reduction over pipeline calls.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from . import cliques
from .csp import (
    CspInstance,
    _has_false,
    _nand_rows,
    branch_and_bound,
    build_impl_structure,
    impl_edges,
    impl_prune,
    is_eq_fn,
    is_impl_fn,
    is_nand_fn,
    preprocess_easy,
    set_variables,
)
from .errors import ResourceLimit, VerificationError
from .hypergraph import _block, _mask, _vertices
from .kis import _decide

#: Part-sets materialized per bin before a branch aborts.
NODE_CAP = 200_000


def _clean(rows: Sequence[int], m: int) -> bool:
    """True iff no NAND pair lies inside the set of mask `m`."""
    return _block(rows, m) & m == 0


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
    desc, anc = build_impl_structure(phi)
    rows = _nand_rows(phi)
    heavy = [d for d in desc if d.bit_count() >= 3]
    for size in range(0, k // 3 + 1):
        for S in itertools.combinations(heavy, size):
            cone = 0
            for d in S:
                cone |= d
            weight = cone.bit_count()
            if weight > k or (size and weight < 3 * size):
                continue
            blocked = _block(rows, cone)
            if blocked & cone:
                continue
            fixed = dict.fromkeys(_vertices(cone), 1)
            fixed.update(dict.fromkeys(_vertices(_block(anc, blocked)), 0))
            branch = set_variables(phi, fixed)
            if branch is None:
                continue
            k_i = k - weight
            branch = preprocess_easy(branch, k_i)
            if _has_false(branch):
                continue
            desc2, _ = build_impl_structure(branch)
            still_heavy = [v for v, d in enumerate(desc2, 1) if d.bit_count() >= 3]
            if still_heavy:
                branch = set_variables(branch, dict.fromkeys(still_heavy, 0))
                if branch is None:
                    continue
                branch = preprocess_easy(branch, k_i)
                if _has_false(branch):
                    continue
            desc3, _ = build_impl_structure(branch)
            if any(d.bit_count() > 2 for d in desc3):
                raise VerificationError("restriction left a heavy variable")
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
    cycles = _two_cycles(phi)
    if not cycles:
        yield phi, k
        return
    rows = _nand_rows(phi)
    takeable = [c for c in cycles if _clean(rows, _mask(c))]
    cycle_vertices = set().union(*cycles)
    for r in range(0, min(len(takeable), k // 2) + 1):
        for C in itertools.combinations(takeable, r):
            taken = set().union(*C) if C else set()
            fixed = {v: 1 for v in taken}
            fixed.update({v: 0 for v in cycle_vertices - taken})
            branch = set_variables(phi, fixed)
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
    """

    v_l: frozenset[int]
    v_r: frozenset[int]
    v_0: frozenset[int]
    groups: tuple[tuple[Optional[int], frozenset[int]], ...]


def build_groups(phi: CspInstance) -> GroupPartition:
    """Partition the variables of an acyclic restricted instance into stars.

    A solution lying wholly inside one group, or two, needs no triangle
    branch; `_solve_acyclic` checks those pools first.
    """
    desc, anc = build_impl_structure(phi)
    for v, d in enumerate(desc, 1):
        if d.bit_count() > 2:
            raise ValueError(f"variable {v} is heavy; restrict first")
        other = (d & ~(1 << (v - 1))).bit_length()
        if other and desc[other - 1] >> (v - 1) & 1:
            raise ValueError(f"two-cycle {{{v},{other}}}; remove cycles first")
    v_r = frozenset(v for v, a in enumerate(anc, 1) if a.bit_count() >= 2)
    v_l = frozenset(
        v for v, (a, d) in enumerate(zip(anc, desc), 1)
        if a.bit_count() == 1 and d.bit_count() == 2
    )
    v_0 = frozenset(range(1, phi.n + 1)) - v_r - v_l
    groups: list[tuple[Optional[int], frozenset[int]]] = [
        (s, frozenset(_vertices(anc[s - 1]))) for s in sorted(v_r)
    ]
    if v_0:
        groups.append((None, v_0))
    return GroupPartition(v_l, v_r, v_0, tuple(groups))


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
        if max(sums) - min(sums) > limit:
            raise VerificationError("bin imbalance exceeds largest part")
    return bins


def _chunks_for_split(
    rows: Sequence[int],
    sink: Optional[int],
    members: frozenset[int],
    take: int,
    with_sink: bool,
) -> list[tuple[int, int]]:
    """Ways a group puts `take` vertices into one bin, as (mask, block)
    pairs with block = mask | NAND neighbours; a whole group supplies its
    quota with its sink."""
    if with_sink:
        if sink is None:
            raise ValueError("a whole-group split needs a sink")
        if take < 1:
            return []
        rest = sorted(members - {sink})
        combos = (c + (sink,) for c in itertools.combinations(rest, take - 1))
    else:
        base = sorted(members if sink is None else members - {sink})
        combos = itertools.combinations(base, take)
    out = []
    for c in combos:
        m = _mask(c)
        nbrs = _block(rows, m)
        if nbrs & m == 0:
            out.append((m, m | nbrs))
    return out


def _triangle_exists(n: int, nodes: list[list[tuple[int, int]]]) -> bool:
    """Tripartite check: disjoint, cross-NAND-free triple of part-sets.

    A part-set y fits beside x when y's mask misses x's block, that is,
    lies inside the complement of the block; `cliques._compat` tests
    exactly that containment on packed masks."""
    if any(not part for part in nodes):
        return False
    full = (1 << n) - 1
    masks = [cliques._pack([m for m, _ in part], n) for part in nodes]
    frees = [cliques._pack([full & ~b for _, b in part], n) for part in nodes]
    ab = cliques._compat(frees[0], masks[1])
    bc = cliques._compat(frees[1], masks[2])
    ac = cliques._compat(frees[0], masks[2])
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
    rows = _nand_rows(phi)
    groups = list(build_groups(phi).groups)

    def pool_count(chosen: list[tuple[Optional[int], frozenset[int]]]) -> bool:
        forced = [s for s, _ in chosen if s is not None]
        if not _clean(rows, _mask(forced)):
            return False
        k_rest = k - len(forced)
        if k_rest < 0:
            return False
        pool = 0
        for s, members in chosen:
            pool |= _mask(members if s is None else members - {s})
        for s in forced:
            pool &= ~(rows[s - 1] | 1 << (s - 1))
        return _decide(rows, pool, (), k_rest)[0]

    for g in groups:
        if pool_count([g]):
            return True
    for g1, g2 in itertools.combinations(groups, 2):
        if pool_count([g1, g2]):
            return True

    # A chunk list depends only on (group index, take, whole), so each
    # is built once per call however many branches read it.
    @functools.cache
    def chunks_of(gi: int, take: int, whole: bool) -> list[tuple[int, int]]:
        sink, members = groups[gi]
        return _chunks_for_split(rows, sink, members, take, whole)

    lo = k // 3
    hi = -(-k // 3)
    for ell in range(3, min(k, len(groups)) + 1):
        for combo in itertools.combinations(range(len(groups)), ell):
            caps = [len(groups[i][1]) for i in combo]
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
                if not _clean(rows, _mask(s for s in (g1s, g2s) if s is not None)):
                    continue
                for c1, t1 in _distributions(q1, g1s is not None):
                    for c2, t2 in _distributions(q2, g2s is not None):
                        loads = [sums[t] + c1[t] + c2[t] for t in range(3)]
                        if not all(lo <= x <= hi for x in loads):
                            continue
                        if _branch_triangle(
                            phi.n, chunks_of, groups, combo, order, quotas, bins,
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
    n: int,
    chunks_of: Callable[[int, int, bool], list[tuple[int, int]]],
    groups: list[tuple[Optional[int], frozenset[int]]],
    combo: tuple[int, ...],
    order: list[int],
    quotas: tuple[int, ...],
    bins: tuple[list[int], list[int], list[int]],
    split_a: tuple[int, tuple[int, int, int], Optional[int]],
    split_b: tuple[int, tuple[int, int, int], Optional[int]],
) -> bool:
    """Materialize the three bins' part-sets for one branch and test;
    `chunks_of(group index, take, whole)` is a group's chunk list."""
    nodes: list[list[tuple[int, int]]] = []
    for t in range(3):
        chunk_lists: list[list[tuple[int, int]]] = []
        for idx in bins[t]:
            gi = order[idx - 1]
            whole = groups[combo[gi]][0] is not None
            chunk_lists.append(chunks_of(combo[gi], quotas[gi], whole))
        for si, c, tpos in (split_a, split_b):
            take = c[t]
            if take == 0:
                continue
            chunk_lists.append(chunks_of(combo[si], take, tpos == t))
        part: list[tuple[int, int]] = [(0, 0)]
        for chunks in chunk_lists:
            if not chunks:
                part = []
                break
            nxt = []
            for bm, bb in part:
                # A chunk joins when its mask misses the base's block.
                nxt.extend((bm | cm, bb | cb) for cm, cb in chunks if cm & bb == 0)
                if len(nxt) > NODE_CAP:
                    raise ResourceLimit("triangle part-sets", f"> {NODE_CAP}", NODE_CAP)
            part = nxt
        nodes.append(part)
    return _triangle_exists(n, nodes)


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
    implication, or equality shaped (equality reads as two implications
    throughout); pinning constraints are propagated and violated
    all-false constraints branched away first.  Labels are ignored.
    """
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
        inst = preprocess_easy(impl_prune(inst, leaf.k), leaf.k)
        if _has_false(inst):
            continue
        for f, _ in inst.constraints:
            if not (is_nand_fn(f) or is_impl_fn(f) or is_eq_fn(f)):
                raise ValueError(f"unsupported constraint {f.name!r}")
        for rbranch, k_i in restrict_instance(inst, leaf.k):
            if solve_restricted(rbranch, k_i):
                return True
    return False
