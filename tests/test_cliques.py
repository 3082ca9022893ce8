"""The triangle/clique counting core against brute enumeration."""

import itertools
import random

import numpy as np
import pytest

from sparsekis import (
    Graph,
    ResourceLimit,
    VerificationError,
    count_k_cliques,
    count_k_is,
    count_triangles_tripartite,
)
from sparsekis import cliques
from sparsekis.cliques import (
    count_k_cliques_masks,
    count_k_is_masks,
    find_triangle_tripartite,
)

from cliques_ref import cliques_of_size, complement_rows
from conftest import gnp_graph


def brute_cliques(G: Graph, k: int) -> int:
    es = set(G.edges)
    return sum(
        1
        for c in itertools.combinations(range(1, G.n + 1), k)
        if all(frozenset(p) in es for p in itertools.combinations(c, 2))
    )


def test_triangles_all_ones():
    one = np.ones((2, 2), dtype=np.uint8)
    assert count_triangles_tripartite(one, one, one) == 8


def test_triangles_zero_matrix():
    z = np.zeros((3, 4), dtype=np.uint8)
    o = np.ones((4, 5), dtype=np.uint8)
    oz = np.ones((3, 5), dtype=np.uint8)
    assert count_triangles_tripartite(z, o, oz) == 0


def test_triangles_match_triple_loop():
    # Sparse draws too, so that some triples of matrices hold no triangle
    # and the find must answer None exactly then.
    rng = random.Random(3)
    found = empty = 0
    for _ in range(60):
        na, nb, nc = (rng.randint(1, 7) for _ in range(3))
        p = rng.choice((0.1, 0.3, 0.5))

        def rand(rows, cols):
            return np.array(
                [[int(rng.random() < p) for _ in range(cols)] for _ in range(rows)],
                dtype=np.uint8,
            )

        ab, bc, ac = rand(na, nb), rand(nb, nc), rand(na, nc)
        triples = [
            (a, b, c)
            for a in range(na) for b in range(nb) for c in range(nc)
            if ab[a, b] and bc[b, c] and ac[a, c]
        ]
        assert count_triangles_tripartite(ab, bc, ac) == len(triples)
        hit = find_triangle_tripartite(ab, bc, ac)
        if triples:
            found += 1
            assert hit in triples
        else:
            empty += 1
            assert hit is None
    assert found and empty


def test_any_nonzero_entry_relates_its_pair():
    # Entries in {-1, 0, 1, 2} plus one fractional entry per draw: the
    # count is the number of triples whose three entries are all
    # nonzero, and the find returns such a triple exactly when the count
    # is positive.
    rng = random.Random(4)
    found = empty = 0
    for _ in range(60):
        na, nb, nc = (rng.randint(1, 6) for _ in range(3))
        weights = rng.choice(((6, 1, 1, 1), (2, 1, 1, 1)))

        def rand(rows, cols):
            m = np.array(
                [rng.choices((0, -1, 1, 2), weights, k=cols) for _ in range(rows)],
                dtype=np.float64,
            )
            m[rng.randrange(rows), rng.randrange(cols)] = rng.choice((0.5, -0.25))
            return m

        ab, bc, ac = rand(na, nb), rand(nb, nc), rand(na, nc)
        triples = [
            (a, b, c)
            for a in range(na) for b in range(nb) for c in range(nc)
            if ab[a, b] != 0 and bc[b, c] != 0 and ac[a, c] != 0
        ]
        count = count_triangles_tripartite(ab, bc, ac)
        hit = find_triangle_tripartite(ab, bc, ac)
        assert count == len(triples)
        assert (count > 0) == (hit is not None)
        if triples:
            found += 1
            assert hit in triples
        else:
            empty += 1
    assert found and empty
    # The two cases that read the raw values: a 2 counted twice, and a
    # fractional entry that the find already took as related.
    assert count_triangles_tripartite([[2, 0]], [[1], [1]], [[1]]) == 1
    assert count_triangles_tripartite([[0.5]], [[1]], [[1]]) == 1
    assert find_triangle_tripartite([[0.5]], [[1]], [[1]]) == (0, 0, 0)


@pytest.mark.parametrize("position", range(3))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_entries_rejected(bad, position):
    # Cast to booleans, a NaN or an infinity would read as related.
    mats = [[[1.0]], [[1.0]], [[1.0]]]
    mats[position] = [[bad]]
    with pytest.raises(ValueError, match="non-finite"):
        count_triangles_tripartite(*mats)
    with pytest.raises(ValueError, match="non-finite"):
        find_triangle_tripartite(*mats)


@pytest.mark.parametrize("bad", [np.nan, 5.0], ids=["nan", "out_of_range"])
def test_triangle_block_guard(bad):
    # The block loop that the count and the find share checks every
    # product block: a mask holding a NaN, or an entry past the inner
    # dimension, is a failed exactness check.  The public functions read
    # their inputs as booleans, so only a caller of the loop can pass one.
    one = np.ones((3, 3), dtype=bool)
    ac = np.ones((3, 3), dtype=np.float32)
    ac[1, 2] = bad
    with pytest.raises(VerificationError):
        list(cliques._product_blocks(one, one, ac))


def test_boolean_inputs_are_not_copied(monkeypatch):
    # The clique engine and the nand_impl triangle step pass boolean
    # matrices, transposed views included; they reach the loop as they are.
    seen = []
    real = cliques._product_blocks

    def spy(ab, bc, ac):
        seen.extend((ab, bc, ac))
        return real(ab, bc, ac)

    monkeypatch.setattr(cliques, "_product_blocks", spy)
    rng = np.random.default_rng(5)
    mats = [rng.random((4, 4)) < 0.5 for _ in range(3)]
    args = (mats[0], mats[1].T, mats[2])
    count_triangles_tripartite(*args)
    find_triangle_tripartite(*args)
    assert all(a is b for a, b in zip(seen, args + args))


def test_triangles_dimension_mismatch():
    with pytest.raises(ValueError):
        count_triangles_tripartite(
            np.ones((2, 3), dtype=np.uint8),
            np.ones((4, 2), dtype=np.uint8),
            np.ones((2, 2), dtype=np.uint8),
        )


def test_k4_has_four_triangles():
    k4 = Graph(4, tuple(
        frozenset((u, v)) for u in range(1, 5) for v in range(u + 1, 5)
    ))
    assert count_k_cliques(k4, 3) == 4
    assert count_k_cliques(k4, 4) == 1


def test_empty_graph_no_triangles():
    assert count_k_cliques(Graph(6, ()), 3) == 0


def test_small_k_closed_forms():
    rng = random.Random(4)
    G = gnp_graph(rng, 9, 0.4)
    assert count_k_cliques(G, 0) == 1
    assert count_k_cliques(G, 1) == 9
    assert count_k_cliques(G, 2) == G.m


def test_cliques_match_brute_gnp():
    rng = random.Random(1)
    for p in (0.3, 0.6):
        for _ in range(4):
            G = gnp_graph(rng, 12, p)
            for k in (3, 4, 5, 6):
                assert count_k_cliques(G, k) == brute_cliques(G, k)


def test_is_c5():
    c5 = Graph(5, tuple(
        frozenset((i, i % 5 + 1)) for i in range(1, 6)
    ))
    assert count_k_is(c5, 2) == 5


def test_is_k4_weight_two():
    k4 = Graph(4, tuple(
        frozenset((u, v)) for u in range(1, 5) for v in range(u + 1, 5)
    ))
    assert count_k_is(k4, 2) == 0


def count_is_containing(G: Graph, k: int, W) -> int:
    """Independent k-sets holding all of W: the mask engine on the vertices
    outside W's closed neighborhood."""
    W = frozenset(W)
    if len(W) > k or not G.is_independent(W):
        return 0
    closed = 0
    for w in W:
        closed |= G.adjacency[w - 1] | 1 << (w - 1)
    return count_k_is_masks(G.adjacency, ((1 << G.n) - 1) & ~closed, k - len(W))


def test_is_containing():
    rng = random.Random(8)
    G = gnp_graph(rng, 12, 0.3)
    es = set(G.edges)
    adj = next(iter(es))
    assert count_is_containing(G, 4, adj) == 0
    assert count_is_containing(G, 4, ()) == count_k_is(G, 4)
    for _ in range(5):
        W = tuple(rng.sample(range(1, 13), 2))
        want = sum(
            1
            for c in itertools.combinations(range(1, 13), 4)
            if set(W) <= set(c)
            and all(frozenset(p) not in es for p in itertools.combinations(c, 2))
        )
        assert count_is_containing(G, 4, W) == want


def test_mask_engine_counts_only_inside_alive():
    # k runs past |alive| (at most 8), and k = 2 must count only the
    # edges with both ends alive.
    rng = random.Random(14)
    for p in (0.3, 0.6):
        for _ in range(4):
            G = gnp_graph(rng, 11, p)
            es = set(G.edges)
            inside = rng.sample(range(1, 12), rng.randint(0, 8))
            alive = sum(1 << (v - 1) for v in inside)
            for k in range(0, 10):
                inner = [
                    sum(frozenset(q) in es for q in itertools.combinations(c, 2))
                    for c in itertools.combinations(inside, k)
                ]
                want = inner.count(k * (k - 1) // 2)
                assert count_k_cliques_masks(G.adjacency, alive, k) == want
                assert count_k_is_masks(G.adjacency, alive, k) == inner.count(0)


def test_total_clique_count_recursive():
    def all_cliques(G: Graph) -> int:
        es = set(G.edges)

        def rec(chosen: tuple[int, ...], start: int) -> int:
            total = 1  # count the current clique (empty included)
            for v in range(start, G.n + 1):
                if all(frozenset((u, v)) in es for u in chosen):
                    total += rec(chosen + (v,), v + 1)
            return total

        return rec((), 1)

    rng = random.Random(10)
    for _ in range(5):
        G = gnp_graph(rng, 9, 0.5)
        assert sum(count_k_cliques(G, k) for k in range(0, 10)) == all_cliques(G)


def test_edge_monotone_is():
    rng = random.Random(12)
    G = gnp_graph(rng, 10, 0.3)
    present = set(G.edges)
    missing = [
        frozenset((u, v))
        for u in range(1, 11) for v in range(u + 1, 11)
        if frozenset((u, v)) not in present
    ]
    G2 = Graph(10, tuple(present | {missing[0]}))
    for k in (2, 3, 4):
        assert count_k_is(G2, k) <= count_k_is(G, k)


def test_node_cap_raises(monkeypatch):
    # Complement of the empty graph is complete: 66 two-cliques per part.
    # The cap is read at call time.
    monkeypatch.setattr(cliques, "NODE_CAP", 1)
    with pytest.raises(ResourceLimit):
        count_k_is(Graph(12, ()), 6)


def _random_rows(rng: random.Random, n: int, p: float) -> list[int]:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def _alive_with_holes(rng: random.Random, n: int, size: int) -> int:
    """A mask of `size` scattered vertices, at least one of them past 64."""
    inside = rng.sample(range(1, n + 1), size - 1) + [rng.randint(65, n)]
    return sum({1 << (v - 1) for v in inside})


def test_engine_matches_recursive_reference_past_one_word():
    # Vertex ids run to 130, so rows and masks take more than one 64-bit
    # word, and `alive` keeps a scattered few of them.  Sparse graphs
    # have few cliques and many independent sets, dense ones the reverse.
    rng = random.Random(65)
    checked = 0
    for p in (0.1, 0.3, 0.7, 0.9):
        for _ in range(3):
            n = rng.randint(65, 130)
            rows = _random_rows(rng, n, p)
            alive = _alive_with_holes(rng, n, rng.randint(10, 20))
            comp = complement_rows(rows, alive)
            for k in range(3, 9):
                want_cliques = len(cliques_of_size(rows, alive, k)[0])
                want_is = len(cliques_of_size(comp, alive, k)[0])
                assert count_k_cliques_masks(rows, alive, k) == want_cliques, (n, p, k)
                assert count_k_is_masks(rows, alive, k) == want_is, (n, p, k)
                checked += want_cliques > 0
                checked += want_is > 0
    assert checked > 20


def test_parts_match_recursive_reference():
    # Same cliques in the same (lexicographic) order, with the same
    # common neighbours, once the engine's columns map back to vertices.
    rng = random.Random(66)
    for p in (0.2, 0.6):
        n = rng.randint(65, 130)
        rows = _random_rows(rng, n, p)
        alive = _alive_with_holes(rng, n, 24)
        keep = [v for v in range(1, n + 1) if alive >> (v - 1) & 1]
        M = cliques._inside(rows, alive)
        for size in range(1, 5):
            cols, commons = cliques._cliques_of_size(M, size)
            masks = [sum(1 << (keep[c] - 1) for c in row) for row in cols]
            common_masks = [
                sum(1 << (keep[c] - 1) for c in np.flatnonzero(row)) for row in commons
            ]
            want = cliques_of_size(rows, alive, size)
            assert len(cols) == len(want[0])
            assert (masks, common_masks) == want, (p, size)


def test_count_cliques_rejects_a_negative_k():
    with pytest.raises(ValueError) as err:
        cliques._count_cliques(np.zeros((3, 3), dtype=bool), -1)
    assert type(err.value) is ValueError and str(err.value) == "negative k -1"
