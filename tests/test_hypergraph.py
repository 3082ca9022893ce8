"""Data model, text format, and the matching stream."""

import random

import pytest

from sparsekis import Graph, HgrError, Hypergraph, format_hgr, parse_hypergraph
from sparsekis.hypergraph import (
    BadArity,
    DuplicateEdge,
    DuplicateVertexInEdge,
    MalformedEdgeLine,
    MalformedHeader,
    VertexOutOfRange,
    complement,
    induced,
    underlying_graph,
)

from conftest import random_graph, random_hypergraph
from matchings import enumerate_matchings


def test_parse_single_edge():
    H = parse_hypergraph("p hgr 4 1\ne 1 2 3\n")
    assert H.n == 4
    assert H.edges == (frozenset({1, 2, 3}),)


def test_parse_empty():
    H = parse_hypergraph("p hgr 3 0\n")
    assert H.n == 3
    assert H.edges == ()


def test_parse_rejects_repeated_vertex():
    with pytest.raises(HgrError):
        parse_hypergraph("p hgr 3 1\ne 1 1 2\n")


def test_parse_rejects_out_of_range_and_arity():
    with pytest.raises(HgrError):
        parse_hypergraph("p hgr 3 1\ne 1 4 2\n")
    with pytest.raises(HgrError):
        parse_hypergraph("p hgr 3 1\ne 1\n")
    with pytest.raises(HgrError):
        parse_hypergraph("p xyz 3 0\n")


# Each error branch of the parser: input text, exception class, line_no.
HGR_PARSE_ERRORS = {
    "header_form": ("p xyz 3 0\n", MalformedHeader, 1),
    "second_header": ("p hgr 3 0\n# again\np hgr 3 0\n", MalformedHeader, 3),
    "non_integer_counts": ("p hgr 3 x\n", MalformedHeader, 1),
    "negative_counts": ("p hgr -3 0\n", MalformedHeader, 1),
    "edge_before_header": ("# first\ne 1 2\np hgr 3 1\n", MalformedHeader, 2),
    "non_integer_vertex": ("p hgr 3 1\ne 1 x\n", MalformedEdgeLine, 2),
    "arity": ("p hgr 3 1\ne 1\n", BadArity, 2),
    "vertex_range": ("p hgr 3 1\ne 1 4 2\n", VertexOutOfRange, 2),
    "repeated_vertex": ("p hgr 3 1\ne 1 1 2\n", DuplicateVertexInEdge, 2),
    "duplicate_edge": ("p hgr 3 2\ne 1 2\ne 2 1\n", DuplicateEdge, 3),
    "unrecognized": ("p hgr 3 0\nx 1 2\n", MalformedEdgeLine, 2),
    "missing_header": ("# nothing else\n", MalformedHeader, 0),
    "edge_count": ("\np hgr 3 2\ne 1 2\n", MalformedHeader, 2),
}


@pytest.mark.parametrize("case", sorted(HGR_PARSE_ERRORS))
def test_parse_error_class_and_line(case):
    text, cls, line_no = HGR_PARSE_ERRORS[case]
    with pytest.raises(HgrError) as exc:
        parse_hypergraph(text)
    assert type(exc.value) is cls
    assert exc.value.line_no == line_no


def test_format_round_trip():
    rng = random.Random(2)
    H = random_hypergraph(rng, 9, {2: 4, 3: 5, 4: 2})
    again = parse_hypergraph(format_hgr(H))
    assert again.n == H.n
    assert again.edges == H.edges  # file order = insertion order


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError):
        Hypergraph(4, (frozenset({1, 2, 3}), frozenset({3, 2, 1})))


@pytest.mark.parametrize("edge", [(1, 1, 2), [2, 1, 2], (3, 3)])
def test_edge_listing_a_vertex_twice_rejected(edge):
    # Frozen as given, (1, 1, 2) would become the pair {1, 2}.
    with pytest.raises(ValueError, match="lists a vertex twice"):
        Hypergraph(3, (edge,))
    with pytest.raises(ValueError, match="lists a vertex twice"):
        Graph(3, (edge,))


def test_graph_takes_the_hypergraph_checks_and_rejects_larger_edges():
    G = Graph(3, ((1, 2),))
    assert isinstance(G, Hypergraph) and G.m == 1 and G.edge_masks == (0b11,)
    with pytest.raises(ValueError, match="exactly 2 endpoints"):
        Graph(3, ((1, 2), (1, 2, 3)))
    with pytest.raises(ValueError, match="negative vertex count"):
        Graph(-1, ())
    with pytest.raises(ValueError, match="out of range 1..3"):
        Graph(3, ((1, 4),))
    with pytest.raises(ValueError, match="duplicate edge"):
        Graph(3, ((1, 2), (2, 1)))


def test_frozenset_edges_are_kept_not_copied():
    edges = (frozenset({1, 2}), frozenset({1, 2, 3}))
    H = Hypergraph(3, edges)
    assert all(a is b for a, b in zip(H.edges, edges))
    assert Graph(3, edges[:1]).edges[0] is edges[0]
    assert Hypergraph(3, ((1, 2), [2, 3, 1])).edges == (frozenset({1, 2}), frozenset({1, 2, 3}))


def test_underlying_graph_filters_arity_two():
    H = Hypergraph(3, (frozenset({1, 2}), frozenset({1, 2, 3})))
    G = underlying_graph(H)
    assert set(G.edges) == {frozenset({1, 2})}
    rng = random.Random(5)
    H2 = random_hypergraph(rng, 10, {2: 6, 3: 7})
    assert set(underlying_graph(H2).edges) == {
        e for e in H2.edges if len(e) == 2
    }


def test_is_independent_rejects_vertices_out_of_range():
    G = Graph(3, (frozenset({1, 2}),))
    assert G.is_independent([1, 3]) and not G.is_independent([1, 2])
    for vs in ([4], [0], [-1], [1, 2, 9]):
        with pytest.raises(ValueError, match="out of range 1..3"):
            G.is_independent(vs)


def test_complement_k4_and_involution():
    k4 = Graph(4, tuple(
        frozenset((u, v)) for u in range(1, 5) for v in range(u + 1, 5)
    ))
    assert complement(k4).m == 0
    empty3 = Graph(3, ())
    assert complement(empty3).m == 3
    rng = random.Random(7)
    edges = {frozenset(rng.sample(range(1, 13), 2)) for _ in range(30)}
    G = Graph(12, tuple(edges))
    assert set(complement(complement(G)).edges) == set(G.edges)


def test_closed_neighborhood():
    # A closed neighborhood is an adjacency row plus the vertex's own bit.
    star = Graph(4, (frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 4})))
    assert star.adjacency[0] | 1 << 0 == 0b1111
    G = Graph(5, (frozenset({1, 2}),))
    assert G.adjacency[4] | 1 << 4 == 0b10000


def test_matchings_disjointness_example():
    H = Hypergraph(7, (
        frozenset({1, 2, 3}), frozenset({4, 5, 6}), frozenset({1, 4, 7})
    ))
    got = [tuple(sorted(map(sorted, m.edges))) for m in enumerate_matchings(H, 2)]
    assert got == [([1, 2, 3], [4, 5, 6])]


def test_matchings_size_zero():
    H = Hypergraph(4, (frozenset({1, 2, 3}),))
    ms = list(enumerate_matchings(H, 0))
    assert len(ms) == 1 and not ms[0].edges


def test_matchings_match_pair_filter():
    rng = random.Random(9)
    for _ in range(15):
        H = random_hypergraph(rng, 9, {2: 3, 3: rng.randint(2, 6)})
        big = [e for e in H.edges if len(e) >= 3]
        want = sum(
            1
            for i in range(len(big))
            for j in range(i + 1, len(big))
            if not big[i] & big[j]
        )
        got = list(enumerate_matchings(H, 2))
        assert len(got) == want
        assert len({frozenset(m.edges) for m in got}) == len(got)
        for m in got:
            assert all(
                not a & b for a in m.edges for b in m.edges if a is not b
            )


def test_induced_drops_cut_edges():
    H = Hypergraph(3, (frozenset({1, 2, 3}),))
    sub, ids = induced(H, {1, 2})
    assert sub.n == 2 and sub.edges == ()
    assert ids == (1, 2)
    full, ids2 = induced(H, {1, 2, 3})
    assert full.edges == H.edges and ids2 == (1, 2, 3)


def test_induced_rejects_vertices_out_of_range():
    H = Hypergraph(3, (frozenset({1, 2}),))
    assert induced(H, [])[1] == ()
    for X in ([0, 1, 2], [1, 2, 9], [4], [-1, 3]):
        with pytest.raises(ValueError, match="out of range 1..3"):
            induced(H, X)


def test_random_builders_refuse_more_edges_than_exist():
    # Asked for more distinct edges than the vertices allow, the draw
    # loop would never end.
    with pytest.raises(ValueError, match="4 distinct 2-edges asked of 3 vertices"):
        random_hypergraph(random.Random(0), 3, {2: 4})
    with pytest.raises(ValueError, match="4 distinct edges asked of 3 vertices"):
        random_graph(random.Random(0), 3, 4)
    assert random_hypergraph(random.Random(0), 3, {2: 3, 3: 1}).m == 4


@pytest.mark.parametrize("edge, message", [
    (frozenset({1}), "edge [1] has arity 1, need 2..6"),
    (frozenset(range(1, 8)), "edge [1, 2, 3, 4, 5, 6, 7] has arity 7, need 2..6"),
])
def test_hypergraph_rejects_an_edge_arity_out_of_range(edge, message):
    with pytest.raises(ValueError) as err:
        Hypergraph(7, (edge,))
    assert type(err.value) is ValueError and str(err.value) == message
