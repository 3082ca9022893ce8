"""Definitional references for the inclusion-exclusion counter.

The counter in `sparsekis.kis` walks matchings and rewrites their
neighborhoods on bitmasks.  These are the same steps on explicit
`Hypergraph` objects, kept here so tests can state the identities the
counter relies on without sharing its code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from sparsekis import Hypergraph


@dataclass(frozen=True)
class Matching:
    """Pairwise-disjoint arity >= 3 hyperedges, with their vertex union."""

    edges: tuple[frozenset[int], ...]
    span: frozenset[int] = field(default=frozenset())

    def __post_init__(self) -> None:
        union: set[int] = set()
        total = 0
        for e in self.edges:
            union |= e
            total += len(e)
        if len(union) != total:
            raise ValueError("matching edges are not pairwise disjoint")
        object.__setattr__(self, "span", frozenset(union))


def enumerate_matchings(H: Hypergraph, size: int) -> Iterator[Matching]:
    """Yield every matching of `size` pairwise-disjoint arity >= 3 edges.

    Yields in lexicographic order of the edges' order-index tuples, each
    matching exactly once.
    """
    positions = [i for i, e in enumerate(H.edges) if len(e) >= 3]
    masks = H.edge_masks
    chosen: list[int] = []

    def walk(start: int, used: int) -> Iterator[Matching]:
        if len(chosen) == size:
            yield Matching(tuple(H.edges[i] for i in chosen))
            return
        for idx in range(start, len(positions)):
            p = positions[idx]
            if masks[p] & used:
                continue
            chosen.append(p)
            yield from walk(idx + 1, used | masks[p])
            chosen.pop()

    if size < 0:
        return
    yield from walk(0, 0)


def resolve_intersections(
    H: Hypergraph, S: Matching
) -> tuple[Hypergraph, tuple[int, ...]]:
    """Rewrite edges that touch the matching from earlier in the order.

    For each matching edge e and each earlier large edge e' meeting it,
    the leftover e' minus e either names a single vertex, which is
    deleted (along with every edge through it), or becomes a new edge
    replacing e'.  Everything else is kept.  Returns the rewritten
    hypergraph and old_ids with old_ids[new - 1] = original id.
    """
    for e in S.edges:
        if len(e) == 2:
            raise ValueError("matching contains an arity-2 edge")
    s_index = {e: H.edges.index(e) + 1 for e in S.edges}
    big = [(H.edges.index(e) + 1, e) for e in H.edges if len(e) >= 3]
    deleted: set[int] = set()
    replaced: set[int] = set()
    added: list[tuple[tuple[int, int], frozenset[int]]] = []
    for e, idx_e in s_index.items():
        for idx_p, ep in big:
            if idx_p >= idx_e or not ep & e:
                continue
            rest = ep - e
            if not rest:
                # No leftover to delete or span; the rewrite has no edge
                # that could express this.
                raise ValueError(
                    f"edge {sorted(ep)} lies inside matching edge {sorted(e)}"
                )
            if len(rest) == 1:
                deleted.add(next(iter(rest)))
            else:
                added.append(((idx_p, idx_e), rest))
            replaced.add(idx_p)
    keep = [v for v in range(1, H.n + 1) if v not in deleted]
    new_id = {v: i + 1 for i, v in enumerate(keep)}
    alive = set(keep)
    out: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for idx, e in enumerate(H.edges, start=1):
        if idx in replaced or not e <= alive:
            continue
        mapped = frozenset(new_id[v] for v in e)
        if mapped not in seen:
            seen.add(mapped)
            out.append(mapped)
    for _, rest in sorted(added):
        if not rest <= alive:
            continue
        mapped = frozenset(new_id[v] for v in rest)
        if mapped not in seen:
            seen.add(mapped)
            out.append(mapped)
    return Hypergraph(len(keep), tuple(out)), tuple(keep)


def strip_foreign_high_arity(
    H_prime: Hypergraph, H: Hypergraph, old_ids: tuple[int, ...]
) -> Hypergraph:
    """Drop every large edge of H_prime already present in H.

    Keeps arity-2 edges and only the large edges the rewrite introduced;
    `old_ids` maps H_prime's vertices back to H's.
    """
    originals = {e for e in H.edges if len(e) >= 3}
    out = []
    for e in H_prime.edges:
        if len(e) >= 3 and frozenset(old_ids[v - 1] for v in e) in originals:
            continue
        out.append(e)
    return Hypergraph(H_prime.n, tuple(out))
