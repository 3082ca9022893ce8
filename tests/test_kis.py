"""Inclusion-exclusion counting: examples, order-invariance, term identities."""

import itertools
import random

import pytest

from sparsekis import (
    Hypergraph,
    brute_count_invalid,
    brute_count_k_is,
    count_invalid,
    count_k_is,
    count_k_is_hypergraph,
    count_k_is_mixed,
    decide_k_is,
)
from sparsekis.hypergraph import underlying_graph

from conftest import random_hypergraph
from matchings import (
    Matching,
    enumerate_matchings,
    resolve_intersections,
    strip_foreign_high_arity,
)


def term_by_definition(H: Hypergraph, S: Matching, k: int) -> int:
    """|I'_S| straight from its two conditions: k-sets independent in the
    underlying graph, containing the span, containing no earlier large
    edge that intersects a member of S."""
    es = set(underlying_graph(H).edges)
    big = [(H.order_index(e), e) for e in H.edges if len(e) >= 3]
    span = set().union(*S.edges) if S.edges else set()
    member_pos = {H.order_index(e) for e in S.edges}
    count = 0
    for c in itertools.combinations(range(1, H.n + 1), k):
        cs = set(c)
        if not span <= cs:
            continue
        if any(frozenset(p) in es for p in itertools.combinations(c, 2)):
            continue
        ok = True
        for pos, e in big:
            if pos in member_pos or not e <= cs:
                continue
            later = max(
                (H.order_index(m) for m in S.edges if e & m), default=0
            )
            if pos < later:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_resolve_leftover_pair_becomes_edge():
    # Earlier edge {1,4,5} meets the matched edge {1,2,3}; its leftover
    # {4,5} survives as a new arity-2 edge.
    H = Hypergraph(5, (frozenset({1, 4, 5}), frozenset({1, 2, 3})))
    S = Matching((frozenset({1, 2, 3}),))
    out, ids = resolve_intersections(H, S)
    assert ids == (1, 2, 3, 4, 5)
    assert set(out.edges) == {frozenset({1, 2, 3}), frozenset({4, 5})}


def test_resolve_single_leftover_deletes_vertex():
    H = Hypergraph(4, (frozenset({1, 2, 4}), frozenset({1, 2, 3})))
    S = Matching((frozenset({1, 2, 3}),))
    out, ids = resolve_intersections(H, S)
    assert 4 not in ids and len(ids) == 3
    assert set(out.edges) == {frozenset({1, 2, 3})}


def test_resolve_empty_matching_is_identity():
    H = Hypergraph(5, (frozenset({1, 2, 3}), frozenset({3, 4, 5})))
    out, ids = resolve_intersections(H, Matching(()))
    assert out.edges == H.edges and ids == (1, 2, 3, 4, 5)


def test_resolve_rejects_pair_edge_member():
    H = Hypergraph(3, (frozenset({1, 2}),))
    with pytest.raises(ValueError):
        resolve_intersections(H, Matching((frozenset({1, 2}),)))


def test_strip_keeps_only_new_large_edges():
    H = Hypergraph(8, (
        frozenset({1, 2, 3, 4}), frozenset({4, 5, 6, 7}), frozenset({1, 2, 8})
    ))
    S = Matching((frozenset({4, 5, 6, 7}),))
    resolved, ids = resolve_intersections(H, S)
    stripped = strip_foreign_high_arity(resolved, H, ids)
    back = {frozenset(ids[v - 1] for v in e) for e in stripped.edges}
    # {1,2,3,4} shrank to the new edge {1,2,3}; the original large edges
    # are gone, and every stripped large edge has smaller arity than 4.
    assert frozenset({1, 2, 3}) in back
    assert frozenset({1, 2, 3, 4}) not in back
    assert all(len(e) < 4 for e in stripped.edges)


def test_invalid_examples():
    assert count_invalid(Hypergraph(5, (frozenset({1, 2, 3}),)), 4) == 2
    H2 = Hypergraph(7, (frozenset({1, 2, 3}), frozenset({4, 5, 6})))
    assert count_invalid(H2, 6) == 7  # 4 + 4 - 1


def test_count_examples():
    assert count_k_is_hypergraph(Hypergraph(4, (frozenset({1, 2, 3}),)), 3) == 3
    full = Hypergraph(4, tuple(
        frozenset(c) for c in itertools.combinations(range(1, 5), 3)
    ))
    assert count_k_is_hypergraph(full, 3) == 0


def test_counts_match_oracle_random():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(5, 11)
        H = random_hypergraph(rng, n, {
            2: rng.randint(0, 5), 3: rng.randint(1, 7),
        })
        for k in (3, 4, 5):
            want = brute_count_k_is(H, k)
            assert count_k_is_hypergraph(H, k) == want
            assert count_k_is_mixed(H, k) == want
            assert count_invalid(H, k) == brute_count_invalid(H, k)


def test_mixed_equals_hypergraph_with_high_arity():
    rng = random.Random(22)
    for _ in range(25):
        n = rng.randint(6, 11)
        H = random_hypergraph(rng, n, {
            2: rng.randint(0, 4),
            3: rng.randint(0, 4),
            4: rng.randint(0, 3),
            5: rng.randint(0, 2),
        })
        for k in (4, 5, 6):
            want = brute_count_k_is(H, k)
            assert count_k_is_mixed(H, k) == want
            assert count_k_is_hypergraph(H, k) == want


def test_pure_pair_edges_short_circuit():
    rng = random.Random(23)
    H = random_hypergraph(rng, 10, {2: 12})
    assert count_k_is_mixed(H, 4) == count_k_is(underlying_graph(H), 4)


def test_zero_graph_count_skips_correction(monkeypatch):
    # Two pair triangles leave no independent 3-set in the graph, so the
    # count is 0 whatever the triples say, and no correction runs.
    from sparsekis import kis

    pairs = [frozenset(p) for t in ((1, 2, 3), (4, 5, 6))
             for p in itertools.combinations(t, 2)]
    H = Hypergraph(6, tuple(pairs) + (frozenset({1, 4, 5}), frozenset({2, 5, 6})))
    assert brute_count_k_is(H, 3) == 0

    def boom(*args):
        raise AssertionError("count_invalid called on a zero base count")

    monkeypatch.setattr(kis, "count_invalid", boom)
    assert count_k_is_hypergraph(H, 3) == 0
    assert count_k_is_mixed(H, 3) == 0


def test_residual_hypergraphs_stay_on_masks(monkeypatch):
    # {4,5,6,7} meets the earlier {1,2,3,4}, leaving the 3-vertex
    # leftover {1,2,3} inside its term's universe, so that residual is a
    # hypergraph.  It must be counted by a nested counter on the same
    # rows, with no relabeled Hypergraph, Graph or recursive count.
    from sparsekis import kis

    rng = random.Random(31)
    cases = [(Hypergraph(9, (frozenset({1, 2, 3, 4}), frozenset({4, 5, 6, 7}))), 7)]
    for _ in range(12):
        n = rng.randint(9, 11)
        arities = {2: rng.randint(0, 4), 4: rng.randint(2, 5), 5: rng.randint(1, 3)}
        cases.append((random_hypergraph(rng, n, arities), rng.choice([7, 8])))
    wants = [brute_count_invalid(H, k) for H, k in cases]

    def boom(*args):
        raise AssertionError("residual term left the masks")

    graphs: list[Hypergraph] = []
    real_underlying = kis.underlying_graph

    def underlying_once(H):
        graphs.append(H)
        return real_underlying(H)

    counters: list[int] = []

    class CountingCounter(kis._InvalidCounter):
        def __init__(self, rows, alive, edge_masks, k):
            counters.append(k)
            super().__init__(rows, alive, edge_masks, k)

    monkeypatch.setattr(kis, "Hypergraph", boom)
    monkeypatch.setattr(kis, "count_k_is_hypergraph", boom)
    monkeypatch.setattr(kis.cliques, "count_k_is", boom)
    monkeypatch.setattr(kis, "underlying_graph", underlying_once)
    monkeypatch.setattr(kis, "_InvalidCounter", CountingCounter)
    # 10 + 10 - 1 seven-sets cover one edge or the other.
    assert count_invalid(*cases[0]) == wants[0] == 19
    assert counters == [7, 3]
    for (H, k), want in zip(cases[1:], wants[1:]):
        assert count_invalid(H, k) == want
    # One graph per call (the top-level rows); some random cases nest too.
    assert graphs == [H for H, _ in cases]
    assert len(counters) > len(cases) + 1


def test_order_invariance_of_invalid():
    rng = random.Random(24)
    for _ in range(10):
        n = rng.randint(6, 10)
        H = random_hypergraph(rng, n, {3: rng.randint(2, 6)})
        base = count_invalid(H, 5)
        edges = list(H.edges)
        for _ in range(8):
            rng.shuffle(edges)
            assert count_invalid(Hypergraph(n, tuple(edges)), 5) == base


def test_terms_match_definition():
    # term() is only ever invoked for matchings the search keeps: every
    # member a candidate and member spans pairwise non-adjacent.  For
    # matchings it skips, the definitional value must be zero; for the
    # rest, term() must equal the definition.
    from sparsekis.kis import _InvalidCounter

    rng = random.Random(25)
    for _ in range(12):
        n = rng.randint(6, 9)
        H = random_hypergraph(rng, n, {2: rng.randint(0, 3), 3: rng.randint(2, 5)})
        for k in (3, 5, 6):
            rows = underlying_graph(H).adjacency
            counter = _InvalidCounter(rows, (1 << n) - 1, H.edge_masks, k)
            cands = set(counter.candidates())
            for size in (1, 2):
                for S in enumerate_matchings(H, size):
                    want = term_by_definition(H, S, k)
                    members = sorted(H.order_index(e) for e in S.edges)
                    if len(S.span) > k or not all(i in cands for i in members):
                        assert want == 0
                        continue
                    adjacent = any(
                        counter.span[a] & (counter.span[b] | counter.nbrs[b])
                        for a, b in itertools.combinations(members, 2)
                    )
                    if adjacent:
                        assert want == 0
                        continue
                    mask = 0
                    for v in S.span:
                        mask |= 1 << (v - 1)
                    got = counter.term(members, mask, len(S.span))
                    assert got == want, (n, k, sorted(map(sorted, S.edges)))


def test_high_order_terms_vanish():
    # Matchings deeper than ceil(k/3) have spans too large to sit inside
    # a k-set, which is why the alternating sum stops at that depth.
    rng = random.Random(26)
    for _ in range(10):
        n = rng.randint(8, 10)
        H = random_hypergraph(rng, n, {3: rng.randint(3, 6)})
        k = rng.choice([3, 4, 5])
        depth = -(-k // 3)
        for size in range(depth + 1, 4):
            for S in enumerate_matchings(H, size):
                assert len(S.span) > k
                assert term_by_definition(H, S, k) == 0


def test_arity_strictly_decreases():
    rng = random.Random(27)
    checked = 0
    for _ in range(14):
        H = random_hypergraph(rng, 10, {4: 4, 3: 2, 2: 2}).sorted_by_arity()
        top = max(len(e) for e in H.edges)
        for S in enumerate_matchings(H, 1):
            e = S.edges[0]
            if len(e) < top:
                continue
            nested = any(
                p < e and H.order_index(p) < H.order_index(e)
                for p in H.edges
                if len(p) >= 3
            )
            if nested:
                # An earlier edge inside the member leaves nothing to span.
                with pytest.raises(ValueError):
                    resolve_intersections(H, S)
                continue
            resolved, ids = resolve_intersections(H, S)
            stripped = strip_foreign_high_arity(resolved, H, ids)
            assert all(len(x) < top for x in stripped.edges if len(x) >= 3)
            assert stripped.m <= H.m
            checked += 1
    assert checked >= 20


def test_count_never_exceeds_graph_count():
    rng = random.Random(28)
    for _ in range(10):
        H = random_hypergraph(rng, 9, {2: 4, 3: 4})
        for k in (3, 4):
            assert count_k_is_hypergraph(H, k) <= count_k_is(
                underlying_graph(H), k
            )


def test_decide_and_witness():
    H = Hypergraph(4, (frozenset({1, 2, 3}),))
    yes, wit = decide_k_is(H, 3, want_witness=True)
    assert yes and len(wit) == 3 and wit != frozenset({1, 2, 3})
    k5 = Hypergraph(5, tuple(
        frozenset((u, v)) for u in range(1, 6) for v in range(u + 1, 6)
    ))
    assert decide_k_is(k5, 2) == (False, None)


def test_decide_witness_random():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(5, 10)
        H = random_hypergraph(rng, n, {
            2: rng.randint(0, 4), 3: rng.randint(1, 5), 4: rng.randint(0, 2),
        })
        for k in (3, 4):
            want = brute_count_k_is(H, k) > 0
            got, wit = decide_k_is(H, k, want_witness=True)
            assert got == want
            if got:
                assert len(wit) == k
                assert all(not e <= wit for e in H.edges)
