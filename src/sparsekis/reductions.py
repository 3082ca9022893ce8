"""Instance transformers and hard-instance generators.

Two kinds of machinery live here.  The embedding functions rewrite a
weight-k CSP into an equivalent one of prescribed constraint density by
attaching blocks of fresh variables that every light solution is forced
to leave false.  The generators build hypergraph and CSP instances whose
k-independent-set or weight-k answers coincide with a planted source
instance, for use as solver cross-checks and benchmark fodder.

All constructions are exact, instance-by-instance equivalences at their
stated weights, not merely asymptotic ones; tests enforce this against
brute-force oracles.  Fresh-variable padding is chosen by deterministic
rotation so outputs are reproducible from the inputs alone.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Optional, Sequence

from .csp import (
    NAND2,
    Constraint,
    ConstraintFunction,
    CspInstance,
    s_min,
    symmetrize,
    u_min,
)
from .hypergraph import MAX_ARITY, Hypergraph


def _is_all_but_ones(f: ConstraintFunction) -> bool:
    """True when f rejects exactly the all-ones row."""
    size = 1 << f.arity
    return f.table[size - 1] == 0 and all(f.table[j] == 1 for j in range(size - 1))


def build_less_than(
    f: ConstraintFunction, K: int, vars: Sequence[int]
) -> list[Constraint]:
    """Constraints pinning a K-variable block below weight c = u_min(f).

    The symmetrized f is placed on every arity-sized subset of the
    block.  Any assignment of block weight < c satisfies all of them;
    no satisfying assignment has block weight in [c, K - arity(f)].
    """
    if not f.table[0]:
        raise ValueError(f"{f.name!r} rejects the all-false row")
    c = u_min(f)
    if c > f.arity:
        raise ValueError(f"{f.name!r} is never violated")
    if c < 1:
        raise ValueError(f"{f.name!r} has threshold {c} < 1")
    if K < f.arity:
        raise ValueError(f"block size {K} below arity {f.arity}")
    block = tuple(vars)
    if len(block) != K or len(set(block)) != K:
        raise ValueError(f"need {K} distinct variables, got {block}")
    fs = symmetrize(f)
    return [(fs, sub) for sub in itertools.combinations(block, f.arity)]


def _ceil_pow(n: int, exponent: float) -> int:
    if n <= 0:
        return 0
    return max(1, math.ceil(n ** exponent - 1e-9))


def dense_embed(
    phi: CspInstance, f: ConstraintFunction, gamma: float, k: int
) -> CspInstance:
    """Re-express an all-but-ones instance over f at density exponent gamma.

    `phi` must use only the arity-c function rejecting exactly the
    all-ones row, where c = u_min(f) >= 2 and c <= gamma <= arity(f).
    Each original constraint is replaced by pinning blocks over its
    variables plus every (K-c)-subset of a fresh pool, K = k + arity(f).
    Weight-k satisfiability is preserved exactly.
    """
    c = u_min(f)
    h = f.arity
    if c < 2:
        raise ValueError(f"u_min({f.name!r}) = {c} < 2")
    if not f.table[0]:
        raise ValueError(f"{f.name!r} rejects the all-false row")
    if not c <= gamma <= h:
        raise ValueError(f"gamma {gamma} outside [{c}, {h}]")
    if k < 0:
        raise ValueError(f"negative weight {k}")
    for g, _ in phi.constraints:
        if g.arity != c or not _is_all_but_ones(g):
            raise ValueError(
                f"constraint {g.name!r} is not the arity-{c} all-but-ones function"
            )
    if c == h:
        # f itself rejects exactly the all-ones row; nothing to rewrite.
        return CspInstance(phi.n, phi.constraints)
    n = phi.n
    K = k + h
    # The forcing argument needs at least K - c fresh variables; the
    # density formula may fall short of that at tiny n.
    ell = max(_ceil_pow(n, (gamma - c) / (h - c)), K - c)
    fresh = tuple(range(n + 1, n + ell + 1))
    out: dict[tuple[int, ...], Constraint] = {}
    for _, xs in phi.constraints:
        for ys in itertools.combinations(fresh, K - c):
            for con in build_less_than(f, K, tuple(xs) + ys):
                key = tuple(sorted(con[1]))
                out.setdefault(key, (con[0], key))
    return CspInstance(n + ell, tuple(out[key] for key in sorted(out)))


def sparse_embed(
    phi: CspInstance,
    f: ConstraintFunction,
    gamma: float,
    k: int,
    delta: Optional[float] = None,
) -> CspInstance:
    """Pad an instance with forced-false variables to density exponent gamma.

    A pool of ceil(n^(delta/gamma)) fresh variables joins the instance,
    with delta defaulting to the instance's own density exponent
    log_n(m).  Pinning blocks (threshold d = u_min(f)) over every mix of
    j fresh and d-j original variables force the whole pool false in any
    weight-k solution, so weight-k satisfiability is preserved exactly.
    Requires k = 0 or k >= d: below that no block can ever trip, and
    fresh variables could stand in for real ones.
    """
    d = u_min(f)
    h = f.arity
    n = phi.n
    if not f.table[0]:
        raise ValueError(f"{f.name!r} rejects the all-false row")
    if d < 1 or d > h:
        raise ValueError(f"u_min({f.name!r}) = {d} unusable")
    if delta is None:
        if n < 2 or phi.m < 1:
            raise ValueError("delta is not defined for this instance; pass it explicitly")
        delta = math.log(phi.m) / math.log(n)
    if not 0 < gamma <= delta:
        raise ValueError(f"gamma {gamma} outside (0, {delta}]")
    if 0 < k < d:
        raise ValueError(f"weight {k} below forcing threshold {d}")
    K = k + h
    ell = max(_ceil_pow(n, delta / gamma), K)
    fresh = tuple(range(n + 1, n + ell + 1))
    out: dict[tuple[int, ...], Constraint] = {}

    def add_block(core: tuple[int, ...], used_fresh: tuple[int, ...]) -> None:
        # Pad with the fresh variables cyclically following the last
        # core pool member; deterministic and collision-free.
        start = fresh.index(used_fresh[-1]) + 1 if used_fresh else 0
        avoid = set(used_fresh)
        pads = []
        pos = start
        while len(pads) < K - d:
            y = fresh[pos % ell]
            if y not in avoid:
                pads.append(y)
                avoid.add(y)
            pos += 1
        for con in build_less_than(f, K, core + tuple(pads)):
            key = tuple(sorted(con[1]))
            out.setdefault(key, (con[0], key))

    originals = tuple(range(1, n + 1))
    for j in range(1, d + 1):
        for sy in itertools.combinations(fresh, j):
            if j == d:
                add_block(sy, sy)
            else:
                for sx in itertools.combinations(originals, d - j):
                    add_block(sx + sy, sy)
    gadget = tuple(out[key] for key in sorted(out))
    return CspInstance(n + ell, phi.constraints + gadget)


def gen_kis_sparse_lb(hstar: Hypergraph, gamma: float) -> Hypergraph:
    """Hide a 3-uniform independent-set instance in a denser hypergraph.

    Adds ceil(N^(3/gamma)) padding vertices adjacent to everything, so
    no independent set of size >= 2 touches them; k-independent sets
    (k >= 3) correspond one-to-one with those of the source.
    """
    if not 2 <= gamma <= 3:
        raise ValueError(f"gamma {gamma} outside [2, 3]")
    for e in hstar.edges:
        if len(e) != 3:
            raise ValueError(f"edge {sorted(e)} is not 3-uniform")
    N = hstar.n
    pads = _ceil_pow(N, 3 / gamma)
    total = N + pads
    edges = list(hstar.edges)
    for p in range(N + 1, total + 1):
        for v in range(1, p):
            edges.append(frozenset((p, v)))
    return Hypergraph(total, tuple(edges))


def _check_parts(parts: Sequence[int]) -> None:
    """Raise ValueError unless there is a part and every part is nonempty."""
    if not parts or any(s < 1 for s in parts):
        raise ValueError(f"bad part sizes {list(parts)}")


def _validate_partite(
    parts: Sequence[int], edges: Iterable[frozenset[int]], r: int
) -> tuple[list[frozenset[int]], list[range]]:
    _check_parts(parts)
    bounds = []
    start = 1
    for s in parts:
        bounds.append(range(start, start + s))
        start += s
    total = start - 1
    part_of = {}
    for idx, rng in enumerate(bounds):
        for v in rng:
            part_of[v] = idx
    es = [frozenset(e) for e in edges]
    for e in es:
        if len(e) != r:
            raise ValueError(f"edge {sorted(e)} is not {r}-uniform")
        seen = set()
        for v in e:
            if not 1 <= v <= total:
                raise ValueError(f"vertex {v} outside 1..{total}")
            p = part_of[v]
            if p in seen:
                raise ValueError(f"edge {sorted(e)} has two endpoints in part {p + 1}")
            seen.add(p)
    return es, bounds


def gen_mixed_lb(
    parts: Sequence[int],
    edges: Iterable[frozenset[int]],
    i: int,
    gamma_i: float,
) -> tuple[Hypergraph, int]:
    """Lift a partite uniform instance into a mixed-arity hypergraph.

    Vertices 1..sum(parts) are the parts in order, followed by dummy
    vertices (and, in the padded variant, universally adjacent padding).
    Part cliques limit independent sets to one vertex per part, and each
    source edge becomes an arity-i edge via the dummies, so an
    independent set of the returned size exists exactly when some
    transversal of the parts is independent in the source.

    gamma_i > 3 selects the dense variant: the source must be
    floor(gamma_i)-uniform, its last part acts as the extension pool,
    and the shift is i - r - 1.  gamma_i <= 3 selects the padded
    variant: the source must be 3-uniform and the shift is i - 3.

    Returns the hypergraph and the shifted solution size.
    """
    k = len(parts)
    if gamma_i > 3:
        r = math.floor(gamma_i)
        if not r + 1 <= i <= MAX_ARITY:
            raise ValueError(f"arity {i} outside [{r + 1}, {MAX_ARITY}]")
        es, bounds = _validate_partite(parts, edges, r)
        total = bounds[-1].stop - 1
        dummies = tuple(range(total + 1, total + i - r))
        out: list[frozenset[int]] = []
        last = set(bounds[-1])
        for e in es:
            if e & last:
                out.append(e)
            else:
                for vk in bounds[-1]:
                    out.append(e | {vk} | set(dummies))
        for rng in bounds:
            out.extend(frozenset(p) for p in itertools.combinations(rng, 2))
        return (
            Hypergraph(total + len(dummies), tuple(dict.fromkeys(out))),
            k + i - r - 1,
        )
    if not 2 <= gamma_i <= 3:
        raise ValueError(f"gamma_i {gamma_i} outside [2, 3]")
    if not 3 <= i <= MAX_ARITY:
        raise ValueError(f"arity {i} outside [3, {MAX_ARITY}]")
    es, bounds = _validate_partite(parts, edges, 3)
    total = bounds[-1].stop - 1
    dummies = tuple(range(total + 1, total + i - 2))
    base = total + len(dummies)
    pads = _ceil_pow(max(parts), 3 / gamma_i)
    out = [e | set(dummies) for e in es]
    for rng in bounds:
        out.extend(frozenset(p) for p in itertools.combinations(rng, 2))
    for p in range(base + 1, base + pads + 1):
        for v in range(1, p):
            out.append(frozenset((p, v)))
    return Hypergraph(base + pads, tuple(dict.fromkeys(out))), k + i - 3


def _gadget_pair_ok(f: ConstraintFunction) -> bool:
    """Both orientations of f plus exclusion leave only the all-false row."""
    return not (f([0, 1]) and f([1, 0]))


def gen_binary_hardness(
    phi: CspInstance,
    family: Sequence[ConstraintFunction],
    gamma: float,
) -> tuple[CspInstance, int]:
    """Hide a pairwise-exclusion instance inside a sparser mixed family.

    A ring over ceil(n^(2/gamma)) fresh variables (plus up to two
    auxiliaries) is built from some family member so that the ring
    contributes exactly s = min satisfying weight of the family to any
    solution and pins every fresh variable false.  The result, over the
    family plus exclusion, is weight-(k+s) satisfiable exactly when
    `phi` is weight-k satisfiable; returns the instance and s.
    """
    if not family:
        raise ValueError("empty family")
    for g in family:
        if g.arity != 2:
            raise ValueError(f"{g.name!r} has arity {g.arity}, need 2")
    for g, _ in phi.constraints:
        if g.arity != 2 or not _is_all_but_ones(g):
            raise ValueError(f"constraint {g.name!r} is not pairwise exclusion")
    if not 1 <= gamma <= 2:
        raise ValueError(f"gamma {gamma} outside [1, 2]")
    s = min(s_min(g) for g in family)
    if s > 2:
        raise ValueError("family has no satisfiable member")
    n = phi.n
    ell = max(2, _ceil_pow(n, 2 / gamma))
    ys = tuple(range(n + 1, n + ell + 1))
    cons: list[Constraint] = list(phi.constraints)
    if s == 0:
        f = next((g for g in family if s_min(g) == 0 and _gadget_pair_ok(g)), None)
        if f is None:
            bad = next(g for g in family if s_min(g) == 0)
            raise ValueError(
                f"no zero-weight gadget: {bad.name!r} accepts a mixed row both ways"
            )
        ring = list(zip(ys, ys[1:])) + [(ys[-1], ys[0])]
        for a, b in ring:
            cons.append((f, (a, b)))
            cons.append((f, (b, a)))
            cons.append((NAND2, (a, b)))
        return CspInstance(n + ell, _dedup(cons)), 0
    if s == 1:
        f = next(g for g in family if s_min(g) == 1)
        z1, z2 = n + ell + 1, n + ell + 2
        cons.append((f, (z1, z2)))
        cons.append((NAND2, (z1, z2)))
        for y in ys:
            cons.append((NAND2, (z1, y)))
            cons.append((NAND2, (z2, y)))
        return CspInstance(n + ell + 2, _dedup(cons)), 1
    f = next(g for g in family if s_min(g) == 2)
    z1, z2 = n + ell + 1, n + ell + 2
    cons.append((f, (z1, z2)))
    for y in ys:
        cons.append((NAND2, (z1, y)))
    return CspInstance(n + ell + 2, _dedup(cons)), 2


def _dedup(cons: Sequence[Constraint]) -> tuple[Constraint, ...]:
    seen = dict()
    for f, vs in cons:
        seen.setdefault((f.arity, f.table, tuple(vs)), (f, tuple(vs)))
    return tuple(seen.values())
