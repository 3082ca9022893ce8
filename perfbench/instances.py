"""Seeded instance generators owned by the benchmark.

Instances are plain tuples, so the benchmark's checker never needs the
library's types:

* a hypergraph is ``(n, edges)`` with each edge a sorted vertex tuple
  over 1..n;
* a CSP is ``(n, constraints)`` with each constraint ``(name, table,
  vars)``; ``table[j]`` is the value on the assignment whose argument at
  position p (0-based) is bit p of j.

The same seed always gives the same instances.  ``relabel_*`` apply a
vertex permutation, so every timed call sees a fresh object with the
same answer as the pool instance it came from.
"""

from __future__ import annotations

import random

# Truth tables, written out here rather than taken from the library.
TABLES = {
    "nand2": (1, 1, 1, 0),
    "nand3": (1, 1, 1, 1, 1, 1, 1, 0),
    "impl": (1, 0, 1, 1),  # position 0 true forces position 1 true
    "eq2": (1, 0, 0, 1),
    "or2": (0, 1, 1, 1),
    "nor2": (1, 0, 0, 0),
}
ARITY = {name: len(table).bit_length() - 1 for name, table in TABLES.items()}


def random_hypergraph(rng: random.Random, n: int, counts: dict[int, int]):
    """Distinct random edges, ``counts[arity]`` of each arity, smaller arities first."""
    seen: set[tuple[int, ...]] = set()
    edges: list[tuple[int, ...]] = []
    for arity in sorted(counts):
        want = counts[arity]
        while want:
            e = tuple(sorted(rng.sample(range(1, n + 1), arity)))
            if e not in seen:
                seen.add(e)
                edges.append(e)
                want -= 1
    return n, tuple(edges)


def violates(table, vs, true_set) -> bool:
    j = 0
    for p, v in enumerate(vs):
        if v in true_set:
            j |= 1 << p
    return not table[j]


def random_csp(rng: random.Random, n: int, family, m: int, planted=None):
    """m distinct constraints drawn uniformly from `family` over random variables.

    With `planted` (a set of variables), constraints that assignment
    violates are redrawn, so the instance is satisfiable at weight
    len(planted) by construction.
    """
    seen: set[tuple[str, tuple[int, ...]]] = set()
    out = []
    while len(out) < m:
        name = family[rng.randrange(len(family))]
        vs = tuple(rng.sample(range(1, n + 1), ARITY[name]))
        key = (name, vs)
        if key in seen:
            continue
        if planted is not None and violates(TABLES[name], vs, planted):
            continue
        seen.add(key)
        out.append((name, TABLES[name], vs))
    return n, tuple(out)


def permutation(rng: random.Random, n: int) -> list[int]:
    """perm[v] is the new label of vertex v (index 0 unused)."""
    new = list(range(1, n + 1))
    rng.shuffle(new)
    return [0] + new


def relabel_hypergraph(raw, perm):
    n, edges = raw
    return n, tuple(tuple(sorted(perm[v] for v in e)) for e in edges)


def relabel_csp(raw, perm):
    n, cons = raw
    return n, tuple((name, table, tuple(perm[v] for v in vs)) for name, table, vs in cons)


def to_hypergraph(sk, raw):
    n, edges = raw
    return sk.Hypergraph(n, tuple(frozenset(e) for e in edges))


def to_csp(sk, raw):
    n, cons = raw
    funcs: dict[str, object] = {}
    for name, table, _ in cons:
        if name not in funcs:
            funcs[name] = sk.ConstraintFunction(name, ARITY[name], table)
    return sk.CspInstance(n, tuple((funcs[name], vs) for name, _, vs in cons))
