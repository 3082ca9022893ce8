"""Data model, text format, and the matching stream."""

import random

import pytest

from sparsekis import Graph, HgrError, Hypergraph, format_hgr, parse_hypergraph
from sparsekis.hypergraph import complement, induced, underlying_graph

from conftest import random_hypergraph
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


def test_format_round_trip():
    rng = random.Random(2)
    H = random_hypergraph(rng, 9, {2: 4, 3: 5, 4: 2})
    again = parse_hypergraph(format_hgr(H))
    assert again.n == H.n
    assert again.edges == H.edges  # file order = insertion order


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError):
        Hypergraph(4, (frozenset({1, 2, 3}), frozenset({3, 2, 1})))


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


def test_arity_sort_is_permutation():
    rng = random.Random(13)
    H = random_hypergraph(rng, 10, {2: 4, 4: 3, 3: 5})
    S = H.sorted_by_arity()
    assert sorted(map(sorted, S.edges)) == sorted(map(sorted, H.edges))
    arities = [len(e) for e in S.edges]
    assert arities == sorted(arities)
