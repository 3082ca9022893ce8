"""Weight-k solutions of exclusion plus implication: the Clique-regime pipeline.

Variables under implication edges drag their descendant cones into any
solution, and exclusion (NAND) edges forbid co-selection.  The pipeline
peels structure until a triangle can finish the job.  A `csp._Leaf` is
read once, by `csp._read` (the one reader of every 0-valid leaf), in
the caller's own variable ids, into successor, predecessor and NAND
rows, and a branch is then a `_Branch`: those rows, masks of the alive
and forced-true variables and the residual budget.  A stage fixes
variables with `_take`, mask arithmetic on the rows, and answers with
the mask of a solution's true set (forced variables included) or None.
Descendant and ancestor sets are `csp._closure` on the rows ANDed with
the branch's alive mask.

  1. `_restrict` guesses which high-fanout cones enter the solution,
     leaving every alive variable with at most two descendants; cones
     are ORs of descendant sets, and a cone is clean when its NAND
     neighbours (`_block` over the NAND rows) miss it;
  2. `_two_cycle_branches` guesses which mutually-implying pairs (a
     variable's descendants that are also its ancestors) enter;
  3. the leftover order sorts into stars (a sink plus its sources),
     which partition the alive variables into groups a solution meets
     only via whole quotas;
  4. solutions inside one or two groups are a k-IS question on the
     groups' NAND rows, settled by `kis._decide` with its witness;
  5. one branch per composition of k over three or more chosen groups
     reduces to finding a triangle across three bins of candidate
     part-sets.  Each part-set is a (mask, block) pair, block = mask |
     NAND neighbours, and the compat matrices come from
     `cliques._compat` on the masks' vertex columns and the blocks'
     complements, as the clique count's come from its cliques' columns
     and commons.  A group's chunk list depends only on (group, take,
     whole), so each is built once per acyclic branch and shared by
     every triangle branch.  The first triangle
     `cliques.find_triangle_tripartite` finds names one part-set per
     bin, and their masks are the solution.

Equality constraints read as two implications in every step, so a leaf
is taken with its EQs as they are.

`csp` first searches a leaf for a NAND-free union of descendant sets;
only when that search hits its state cap does it call `_solve_branch`
on the branch it has already read and pruned, so the leaf is read once,
and `solve_csp` checks the mask it gets back against the caller's
instance, as it checks every YES.  `_solve_leaf`, behind the public
`solve_nand_impl`, reads and prunes a leaf itself the same way.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import cliques
from .csp import CspInstance, _branch, _closure, _Leaf, _pruned, _reach, _unpinned
from .errors import ResourceLimit, VerificationError
from .hypergraph import _block, _mask, _vertices
from .kis import _decide

#: Part-sets materialized per bin before a branch aborts.
NODE_CAP = 200_000

_Group = tuple[Optional[int], int]


class _Branch(NamedTuple):
    """A leaf's successor, predecessor and NAND rows, as `csp._read`
    gives them and every branch of the leaf shares; then the variables
    not fixed yet, those set true, and the residual budget."""

    succ: list[int]
    pred: list[int]
    nand: list[int]
    alive: int
    forced: int
    k: int


def _clean(rows: Sequence[int], m: int) -> bool:
    """True iff no NAND pair lies inside the set of mask `m`."""
    return _block(rows, m) & m == 0


def _cones(rows: Sequence[int], alive: int) -> list[int]:
    """`_closure` on `rows` ANDed with `alive`: over the successor rows
    the descendant sets inside a branch, over the predecessor rows the
    ancestor sets."""
    return _closure([r & alive for r in rows], alive)


def _take(b: _Branch, true: int, false: int) -> Optional[_Branch]:
    """Set the variables of mask `true` and their descendants true; set
    those of `false`, the true set's NAND neighbours and all their
    ancestors false; None when a variable must be both."""
    true = _reach(b.succ, true) & b.alive
    false = _reach(b.pred, false | _block(b.nand, true)) & b.alive
    if true & false:
        return None
    return b._replace(
        alive=b.alive & ~(true | false), forced=b.forced | true, k=b.k - true.bit_count()
    )


def _restrict(b: _Branch) -> Iterator[_Branch]:
    """Branch on which heavy descendant cones the solution contains.

    A variable is heavy when its descendant set has three or more
    members.  Each emitted branch fixes the union cone D(S) of a guessed
    heavy subset S true (with |D(S)| <= k, |D(S)| >= 3|S|, and no NAND
    pair inside), deletes NAND-neighbours of the cone with all their
    ancestors, then deletes whatever is still heavy.  Some branch
    preserves each weight-k solution, with residual budget k - |D(S)|.
    """
    desc = _cones(b.succ, b.alive)
    heavy = [d for v in _vertices(b.alive) if (d := desc[v - 1]).bit_count() >= 3]
    for size in range(0, b.k // 3 + 1):
        for S in itertools.combinations(heavy, size):
            cone = 0
            for d in S:
                cone |= d
            weight = cone.bit_count()
            if weight > b.k or (size and weight < 3 * size):
                continue
            branch = _take(b, cone, 0)
            if branch is None:
                continue
            left = _cones(b.succ, branch.alive)
            still_heavy = _mask(v for v, d in enumerate(left, 1) if d.bit_count() >= 3)
            if still_heavy:
                branch = _take(branch, 0, still_heavy)
                if branch is None:
                    continue
                left = _cones(b.succ, branch.alive)
            if any(d.bit_count() > 2 for d in left):
                raise VerificationError("restriction left a heavy variable")
            yield branch


def _two_cycle_branches(b: _Branch) -> Iterator[_Branch]:
    """Branch on which mutually-implying pairs the solution contains.

    In a restricted branch such pairs touch no other implication edge,
    so each is taken or dropped whole: a guessed subset of at most
    floor(k/2) NAND-free pairs is fixed true, every other cycle vertex
    false.  Residual budget drops by two per taken pair.
    """
    desc = _cones(b.succ, b.alive)
    anc = _cones(b.pred, b.alive)
    cycles = sorted({
        c for v in _vertices(b.alive) if (c := desc[v - 1] & anc[v - 1]) != 1 << (v - 1)
    })
    if not cycles:
        yield b
        return
    takeable = [c for c in cycles if _clean(b.nand, c)]
    # Restriction leaves each variable at most two descendants, so the
    # pairs are disjoint and a sum of them is their union.
    on_cycles = sum(cycles)
    for r in range(0, min(len(takeable), b.k // 2) + 1):
        for C in itertools.combinations(takeable, r):
            taken = sum(C)
            branch = _take(b, taken, on_cycles & ~taken)
            if branch is not None:
                yield branch


def _groups(b: _Branch) -> list[_Group]:
    """Star decomposition of the alive variables of an acyclic restricted
    branch, as (sink, members mask) pairs.

    Sinks (two or more ancestors) with their sources form one group
    each; implication-free variables pool into a final sinkless group.
    A solution lying wholly inside one group, or two, needs no triangle
    branch; `_solve_acyclic` checks those pools first.
    """
    desc = _cones(b.succ, b.alive)
    anc = _cones(b.pred, b.alive)
    for v, d in enumerate(desc, 1):
        if d.bit_count() > 2:
            raise ValueError(f"variable {v} is heavy; restrict first")
        other = (d & ~(1 << (v - 1))).bit_length()
        if other and desc[other - 1] >> (v - 1) & 1:
            raise ValueError(f"two-cycle {{{v},{other}}}; remove cycles first")
    groups: list[_Group] = [
        (s, anc[s - 1]) for s in _vertices(b.alive) if anc[s - 1].bit_count() >= 2
    ]
    rest = b.alive & ~sum(members for _, members in groups)
    if rest:
        groups.append((None, rest))
    return groups


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
    members: int,
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
        sink_bit = 1 << (sink - 1)
        rest = _vertices(members & ~sink_bit)
        combos = (_mask(c) | sink_bit for c in itertools.combinations(rest, take - 1))
    else:
        base = members if sink is None else members & ~(1 << (sink - 1))
        combos = (_mask(c) for c in itertools.combinations(_vertices(base), take))
    out = []
    for m in combos:
        nbrs = _block(rows, m)
        if nbrs & m == 0:
            out.append((m, m | nbrs))
    return out


def _find_triangle(n: int, nodes: list[list[tuple[int, int]]]) -> Optional[int]:
    """Tripartite find: the union of a disjoint, cross-NAND-free triple
    of part-sets, one per bin, or None when there is none.

    A part-set y fits beside x when y's mask misses x's block, that is,
    lies inside the complement of the block: `cliques._compat` on the
    complement rows and y's vertex columns.  The masks vary in size, so
    their columns are padded with column n, which every complement row
    holds.  Every part must be non-empty."""
    top = (2 << n) - 1
    a, b = len(nodes[0]), len(nodes[1])
    frees = cliques._bits([top & ~bb for part in nodes[:2] for _, bb in part], n + 1)
    cols = cliques._columns(cliques._bits([m for part in nodes[1:] for m, _ in part], n))
    # Rows: the part-sets of bins 1 and 2; columns: those of bins 0 and 1.
    fits = cliques._compat(cols, frees)
    hit = cliques.find_triangle_tripartite(
        fits[:b, :a].T, fits[b:, a:].T, fits[b:, :a].T
    )
    if hit is None:
        return None
    return nodes[0][hit[0]][0] | nodes[1][hit[1]][0] | nodes[2][hit[2]][0]


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


def _solve_acyclic(b: _Branch) -> Optional[int]:
    """A solution of an acyclic restricted branch, as the mask of its
    true set (forced variables included), or None."""
    k = b.k
    if k == 0:
        return b.forced
    if k > b.alive.bit_count():
        return None
    groups = _groups(b)
    nand = b.nand

    def pool_solution(chosen: Sequence[_Group]) -> Optional[int]:
        sinks = _mask(s for s, _ in chosen if s is not None)
        if not _clean(nand, sinks):
            return None
        k_rest = k - sinks.bit_count()
        if k_rest < 0:
            return None
        pool = sum(members for _, members in chosen) & ~(sinks | _block(nand, sinks))
        ok, found = _decide(nand, pool, (), k_rest, True)
        return b.forced | sinks | found if ok else None

    for chosen in itertools.chain(
        itertools.combinations(groups, 1), itertools.combinations(groups, 2)
    ):
        got = pool_solution(chosen)
        if got is not None:
            return got

    # A chunk list depends only on (group index, take, whole), so each
    # is built once per call however many branches read it.
    @functools.cache
    def chunks_of(gi: int, take: int, whole: bool) -> list[tuple[int, int]]:
        sink, members = groups[gi]
        return _chunks_for_split(nand, sink, members, take, whole)

    lo = k // 3
    hi = -(-k // 3)
    for ell in range(3, min(k, len(groups)) + 1):
        for combo in itertools.combinations(range(len(groups)), ell):
            caps = [groups[i][1].bit_count() for i in combo]
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
                g1s = groups[combo[split1]][0]
                g2s = groups[combo[split2]][0]
                q1 = quotas[split1]
                q2 = quotas[split2]
                if not _clean(nand, _mask(s for s in (g1s, g2s) if s is not None)):
                    continue
                for c1, t1 in _distributions(q1, g1s is not None):
                    for c2, t2 in _distributions(q2, g2s is not None):
                        loads = [sums[t] + c1[t] + c2[t] for t in range(3)]
                        if not all(lo <= x <= hi for x in loads):
                            continue
                        got = _branch_triangle(
                            len(nand), chunks_of, groups, combo, order, quotas, bins,
                            (split1, c1, t1), (split2, c2, t2),
                        )
                        if got is not None:
                            return b.forced | got
    return None


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
    groups: list[_Group],
    combo: tuple[int, ...],
    order: list[int],
    quotas: tuple[int, ...],
    bins: tuple[list[int], list[int], list[int]],
    split_a: tuple[int, tuple[int, int, int], Optional[int]],
    split_b: tuple[int, tuple[int, int, int], Optional[int]],
) -> Optional[int]:
    """Materialize the three bins' part-sets for one branch and find a
    triangle; `chunks_of(group index, take, whole)` is a group's chunk
    list.  A branch with an empty chunk list, or a bin whose joins leave
    nothing, has no triangle and stops before any further join."""
    bin_lists: list[list[list[tuple[int, int]]]] = []
    for t in range(3):
        chunk_lists = []
        for idx in bins[t]:
            gi = order[idx - 1]
            whole = groups[combo[gi]][0] is not None
            chunk_lists.append(chunks_of(combo[gi], quotas[gi], whole))
        for si, c, tpos in (split_a, split_b):
            if c[t]:
                chunk_lists.append(chunks_of(combo[si], c[t], tpos == t))
        if not all(chunk_lists):
            return None
        bin_lists.append(chunk_lists)
    nodes: list[list[tuple[int, int]]] = []
    for chunk_lists in bin_lists:
        part: list[tuple[int, int]] = [(0, 0)]
        for chunks in chunk_lists:
            nxt = []
            for bm, bb in part:
                # A chunk joins when its mask misses the base's block.
                nxt.extend((bm | cm, bb | cb) for cm, cb in chunks if cm & bb == 0)
                if len(nxt) > NODE_CAP:
                    raise ResourceLimit("triangle part-sets", f"> {NODE_CAP}", NODE_CAP)
            part = nxt
        if not part:
            return None
        nodes.append(part)
    return _find_triangle(n, nodes)


def _solve_branch(b: _Branch) -> Optional[int]:
    """A solution of a pruned branch, as the mask of its true set
    (forced variables included), or None: restrict, take or drop the
    two-cycles, then solve each acyclic branch."""
    for restricted in _restrict(b):
        for acyclic in _two_cycle_branches(restricted):
            got = _solve_acyclic(acyclic)
            if got is not None:
                return got
    return None


def _solve_leaf(leaf: _Leaf) -> Optional[int]:
    """A weight-k solution of a 0-valid leaf over NAND, IMPL and EQ, as
    the mask of its true set (forced variables included), or None.

    The leaf is read once: its pinned variables and their ancestors go,
    and the implication order is pruned as the binary leaf solver prunes
    it.  A table of arity above two is a ValueError.
    """
    alive, succ, pred, nand, _, _ = _unpinned(leaf)
    k = leaf.k
    if k > alive.bit_count():
        return None
    if k == 0:
        return leaf.forced
    wide = next((f for f, _ in leaf.constraints if f.arity > 2), None)
    if wide is not None:
        raise ValueError(f"unsupported constraint {wide.name!r}")
    _, alive = _pruned(succ, nand, alive, k)
    return _solve_branch(_Branch(succ, pred, nand, alive, leaf.forced, k))


def solve_nand_impl(phi: CspInstance, k: int) -> bool:
    """Decide weight-k satisfiability over exclusion and implication.

    Accepts any binary instance whose meaningful constraints are NAND,
    implication, or equality shaped (equality reads as two implications
    throughout); pinning constraints are propagated and violated
    all-false constraints branched away first.  A table of higher arity
    is a ValueError wherever a leaf is left to solve, even when a pin
    would satisfy it.  Labels are ignored.
    """
    if k < 0:
        raise ValueError(f"negative weight budget {k}")
    if k > phi.n:
        return False
    return any(_solve_leaf(leaf) is not None for leaf in _branch(phi, k))
