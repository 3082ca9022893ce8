"""Mixed-arity hypergraphs and their graph views.

A hypergraph here is a vertex count n (vertices 1..n) plus an ordered list
of hyperedges, each a set of 2..6 distinct vertices.  The list order is
load-bearing: several solvers break symmetry between edges by "comes
earlier in the list", so edges carry a stable 1-based order index.

The arity-2 edges alone form the underlying graph; arity-3-and-up edges
are the ones whose containment makes an otherwise independent set a false
positive, and matchings (pairwise-disjoint sets) of those drive the
inclusion-exclusion counter in the solver module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

MAX_ARITY = 6


class HgrError(ValueError):
    """Base class for hypergraph input errors; knows its 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedHeader(HgrError):
    pass


class MalformedEdgeLine(HgrError):
    pass


class VertexOutOfRange(HgrError):
    pass


class DuplicateVertexInEdge(HgrError):
    pass


class BadArity(HgrError):
    pass


class DuplicateEdge(HgrError):
    pass


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _vertices(mask: int) -> list[int]:
    """Vertices whose bits are set in `mask`, ascending."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length())
    return out


def _block(rows: Sequence[int], mask: int) -> int:
    """OR of `rows[v - 1]` over the vertices of `mask`: the set's neighbours."""
    out = 0
    while mask:
        bit = mask & -mask
        mask ^= bit
        out |= rows[bit.bit_length() - 1]
    return out


@dataclass(frozen=True)
class Hypergraph:
    """Immutable mixed-arity hypergraph with an ordered edge list."""

    n: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        object.__setattr__(self, "edges", tuple(frozenset(e) for e in self.edges))
        seen = set()
        for e in self.edges:
            if not 2 <= len(e) <= MAX_ARITY:
                raise ValueError(f"edge {sorted(e)} has arity {len(e)}, need 2..{MAX_ARITY}")
            for v in e:
                if not 1 <= v <= self.n:
                    raise ValueError(f"vertex {v} out of range 1..{self.n}")
            if e in seen:
                raise ValueError(f"duplicate edge {sorted(e)}")
            seen.add(e)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def arity_counts(self) -> dict[int, int]:
        """Edge count per arity, {arity: m_i}."""
        counts: dict[int, int] = {}
        for e in self.edges:
            counts[len(e)] = counts.get(len(e), 0) + 1
        return counts

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        """Bitmask per edge (bit v-1 set for vertex v), in edge-list order."""
        return tuple(_mask(e) for e in self.edges)

    @cached_property
    def _index_of(self) -> dict[frozenset[int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def order_index(self, edge: frozenset[int]) -> int:
        """1-based position of an edge in the list (the edge order)."""
        return self._index_of[frozenset(edge)] + 1

    def sorted_by_arity(self) -> "Hypergraph":
        """Copy with edges stably re-sorted by arity (smaller arity first)."""
        return Hypergraph(self.n, tuple(sorted(self.edges, key=len)))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n, no self-loops."""

    n: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        object.__setattr__(self, "edges", tuple(frozenset(e) for e in self.edges))
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise ValueError(f"graph edge {sorted(e)} must have exactly 2 endpoints")
            for v in e:
                if not 1 <= v <= self.n:
                    raise ValueError(f"vertex {v} out of range 1..{self.n}")
            if e in seen:
                raise ValueError(f"duplicate edge {sorted(e)}")
            seen.add(e)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbor bitmask per vertex; index v-1, bit u-1 set iff u ~ v."""
        adj = [0] * self.n
        for e in self.edges:
            u, v = tuple(e)
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        return tuple(adj)

    def is_independent(self, vertices: Iterable[int]) -> bool:
        """True iff no graph edge has both endpoints in `vertices`."""
        m = 0
        for v in vertices:
            if not 1 <= v <= self.n:
                raise ValueError(f"vertex {v} out of range 1..{self.n}")
            m |= 1 << (v - 1)
        rest = m
        while rest:
            low = rest & -rest
            if self.adjacency[low.bit_length() - 1] & m:
                return False
            rest ^= low
        return True


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the HGR text format.

    Lines: optional `#` comments anywhere, one `p hgr <n> <m>` header,
    then exactly m lines `e <v1> ... <vr>` with 2 <= r <= 6 distinct
    1-based vertices.  Errors carry the offending line number.
    """
    n = -1
    m = -1
    header_line = 0
    edges: list[frozenset[int]] = []
    edge_sets: set[frozenset[int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n >= 0:
                raise MalformedHeader(line_no, "second header line")
            if len(fields) != 4 or fields[1] != "hgr":
                raise MalformedHeader(line_no, f"expected 'p hgr <n> <m>', got {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise MalformedHeader(line_no, f"non-integer counts in {line!r}") from None
            if n < 0 or m < 0:
                raise MalformedHeader(line_no, f"negative counts in {line!r}")
            header_line = line_no
        elif fields[0] == "e":
            if n < 0:
                raise MalformedHeader(line_no, "edge line before 'p hgr' header")
            try:
                vertices = [int(f) for f in fields[1:]]
            except ValueError:
                raise MalformedEdgeLine(line_no, f"non-integer vertex in {line!r}") from None
            if not 2 <= len(vertices) <= MAX_ARITY:
                raise BadArity(line_no, f"arity {len(vertices)}, need 2..{MAX_ARITY}")
            for v in vertices:
                if not 1 <= v <= n:
                    raise VertexOutOfRange(line_no, f"vertex {v} out of range 1..{n}")
            e = frozenset(vertices)
            if len(e) != len(vertices):
                raise DuplicateVertexInEdge(line_no, f"repeated vertex in {line!r}")
            if e in edge_sets:
                raise DuplicateEdge(line_no, f"edge {sorted(e)} already present")
            edge_sets.add(e)
            edges.append(e)
        else:
            raise MalformedEdgeLine(line_no, f"unrecognized line {line!r}")
    if n < 0:
        raise MalformedHeader(0, "missing 'p hgr' header")
    if len(edges) != m:
        raise MalformedHeader(header_line, f"header declares {m} edges, file has {len(edges)}")
    return Hypergraph(n, tuple(edges))


def format_hgr(H: Hypergraph, comments: Sequence[str] = ()) -> str:
    """Render a hypergraph back to HGR text, with optional leading comments."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"p hgr {H.n} {H.m}")
    for e in H.edges:
        lines.append("e " + " ".join(str(v) for v in sorted(e)))
    return "\n".join(lines) + "\n"


def underlying_graph(H: Hypergraph) -> Graph:
    """Graph formed by exactly the arity-2 edges of H."""
    return Graph(H.n, tuple(e for e in H.edges if len(e) == 2))


def complement(G: Graph) -> Graph:
    """Graph with an edge exactly where G has none (u != v)."""
    present = {e for e in G.edges}
    edges = [
        frozenset((u, v))
        for u in range(1, G.n + 1)
        for v in range(u + 1, G.n + 1)
        if frozenset((u, v)) not in present
    ]
    return Graph(G.n, tuple(edges))


def induced(H: Hypergraph, X: Iterable[int]) -> tuple[Hypergraph, tuple[int, ...]]:
    """Sub-hypergraph on X with vertices relabeled 1..|X|.

    Keeps the edges lying fully inside X, in their original order.
    Returns (sub, old_ids) where old_ids[new - 1] is the original label.
    """
    old_ids = tuple(sorted(set(X)))
    for v in old_ids[:1] + old_ids[-1:]:  # sorted: the ends bound the rest
        if not 1 <= v <= H.n:
            raise ValueError(f"vertex {v} out of range 1..{H.n}")
    new_of_old = {old: new for new, old in enumerate(old_ids, start=1)}
    keep = set(old_ids)
    edges = [
        frozenset(new_of_old[v] for v in e)
        for e in H.edges
        if keep.issuperset(e)
    ]
    return Hypergraph(len(old_ids), tuple(edges)), old_ids
