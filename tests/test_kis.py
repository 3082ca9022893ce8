"""Inclusion-exclusion counting: examples, order-invariance, term identities."""

import itertools
import math
import random
import time

import pytest

from sparsekis import (
    IMPL,
    NAND2,
    CspInstance,
    Hypergraph,
    Graph,
    VerificationError,
    brute_count_invalid,
    brute_count_k_is,
    count_invalid,
    count_k_is,
    count_k_is_hypergraph,
    count_k_is_mixed,
    decide_k_is,
    hypergraph,
    kis,
    solve_csp,
    solve_nand_impl,
)
from sparsekis.cli import main
from sparsekis.hypergraph import _mask, _vertices, format_hgr, underlying_graph

from conftest import random_hypergraph
from greedy import greedy_k_is
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


def test_negative_k_rejected_by_every_entry_point():
    H = Hypergraph(4, (frozenset({1, 2}), frozenset({2, 3, 4})))
    for entry in (count_invalid, count_k_is_hypergraph, count_k_is_mixed, decide_k_is):
        with pytest.raises(ValueError, match="negative k -1"):
            entry(H, -1)


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
    # count is 0 whatever the triples say, and no correction runs.  A zero
    # budget keeps the search from settling it first.
    monkeypatch.setattr(kis, "SEARCH_NODE_BUDGET", 0)
    pairs = [frozenset(p) for t in ((1, 2, 3), (4, 5, 6))
             for p in itertools.combinations(t, 2)]
    H = Hypergraph(6, tuple(pairs) + (frozenset({1, 4, 5}), frozenset({2, 5, 6})))
    assert brute_count_k_is(H, 3) == 0

    def boom(*args):
        raise AssertionError("inclusion-exclusion ran on a zero base count")

    monkeypatch.setattr(kis, "_InvalidCounter", boom)
    assert count_k_is_hypergraph(H, 3) == 0
    assert count_k_is_mixed(H, 3) == 0
    assert decide_k_is(H, 3) == (False, None)


def test_search_lists_each_edge_at_its_second_highest_vertex(monkeypatch):
    # Listing each edge only at its second-highest vertex must steer the
    # search as listing it at every vertex does: same outcomes and masks.
    # Five nearly complete pair groups and triples across them at k = 6:
    # the NO instances and some YES ones make the search pick most
    # vertices.
    rng = random.Random(84)
    cases = []
    for _ in range(20):
        n = rng.randint(18, 22)
        cut = sorted(rng.sample(range(2, n - 1), 4))
        keep = rng.choice([1.0, 0.97, 0.9])
        pairs = {frozenset(p) for a, b in zip([0] + cut, cut + [n])
                 for p in itertools.combinations(range(a + 1, b + 1), 2)
                 if rng.random() < keep}
        triples: set[frozenset[int]] = set()
        while len(triples) < 3 * n:
            e = frozenset(rng.sample(range(1, n + 1), 3))
            if not any(p <= e for p in pairs):
                triples.add(e)
        H = Hypergraph(n, tuple(pairs) + tuple(triples))
        cases.append((kis._masks(H, 6), H))
    outcomes = [kis._search_k_is(*masks, 6) for masks, _ in cases]
    monkeypatch.setattr(kis, "_edges_by_vertex", lambda big: {
        v: [m for m in big if m >> (v - 1) & 1] for v in range(1, 65)
    })
    assert outcomes == [kis._search_k_is(*masks, 6) for masks, _ in cases]
    for (settled, found), (_, H) in zip(outcomes, cases):
        assert settled
        if found is None:
            assert brute_count_k_is(H, 6) == 0
        else:
            assert found.bit_count() == 6
            assert all(_mask(e) & ~found for e in H.edges)


def test_exhausted_search_returns_zero_without_counting(monkeypatch):
    # Four disjoint pair 5-cliques: every 5-set holds a pair of one of
    # them, which the search proves without the clique engine.
    pairs = [frozenset(p) for b in range(0, 20, 5)
             for p in itertools.combinations(range(b + 1, b + 6), 2)]
    triples = [frozenset({1, 6, 11}), frozenset({2, 7, 16}), frozenset({3, 12, 17})]
    H = Hypergraph(20, tuple(pairs + triples))
    assert brute_count_k_is(H, 5) == 0

    def boom(*args):
        raise AssertionError("counted an instance the search settled")

    monkeypatch.setattr(kis.cliques, "count_k_is_masks", boom)
    assert count_k_is_hypergraph(H, 5) == 0
    assert count_k_is_mixed(H, 5) == 0


def test_residual_hypergraphs_stay_on_masks(monkeypatch):
    # {4,5,6,7} meets the earlier {1,2,3,4}, leaving the 3-vertex
    # leftover {1,2,3} inside its term's universe, so that residual is a
    # hypergraph.  It must be counted by a nested counter on the same
    # rows, with no relabeled Hypergraph, Graph or recursive count.
    rng = random.Random(31)
    cases = [(Hypergraph(9, (frozenset({1, 2, 3, 4}), frozenset({4, 5, 6, 7}))), 7)]
    for _ in range(12):
        n = rng.randint(9, 11)
        arities = {2: rng.randint(0, 4), 4: rng.randint(2, 5), 5: rng.randint(1, 3)}
        cases.append((random_hypergraph(rng, n, arities), rng.choice([7, 8])))
    wants = [brute_count_invalid(H, k) for H, k in cases]

    def boom(*args):
        raise AssertionError("residual term left the masks")

    converted: list[Hypergraph] = []
    real_masks = kis._masks

    def masks_once(H, k):
        converted.append(H)
        return real_masks(H, k)

    counters: list[int] = []

    class CountingCounter(kis._InvalidCounter):
        def __init__(self, rows, alive, edge_masks, k):
            counters.append(k)
            super().__init__(rows, alive, edge_masks, k)

    monkeypatch.setattr(kis, "Hypergraph", boom)
    monkeypatch.setattr(kis, "count_k_is_hypergraph", boom)
    monkeypatch.setattr(kis.cliques, "count_k_is", boom)
    monkeypatch.setattr(kis, "_masks", masks_once)
    monkeypatch.setattr(kis, "_InvalidCounter", CountingCounter)
    # 10 + 10 - 1 seven-sets cover one edge or the other.
    assert count_invalid(*cases[0]) == wants[0] == 19
    assert counters == [7, 3]
    for (H, k), want in zip(cases[1:], wants[1:]):
        assert count_invalid(H, k) == want
    # One mask conversion per call (the top-level rows); some random cases
    # nest too.
    assert converted == [H for H, _ in cases]
    assert len(counters) > len(cases) + 1


@pytest.mark.parametrize("bad", ["pair", "triple", "short"])
def test_checked_rejects_a_bad_witness(monkeypatch, bad):
    # Whatever the search hands back is re-checked against H's own edges.
    H = Hypergraph(6, (frozenset({1, 2}), frozenset({3, 4, 5})))
    k = 3
    mask = {"pair": 0b001011, "triple": 0b011100, "short": 0b100001}[bad]
    monkeypatch.setattr(kis, "_find_k_is", lambda rows, alive, big, k: (True, mask))
    with pytest.raises(VerificationError):
        decide_k_is(H, k, want_witness=True)
    with pytest.raises(VerificationError):
        kis.witness_k_is(H, k)


def test_closed_form_leaves_match_oracle(monkeypatch):
    # Leaves with k2 = k - |span| of 0, 1, 2 and 3 or more, against the
    # exhaustive counts.  The hand-built cases leave a pair that is also a
    # pair edge, and the same pair from two members or two earlier edges;
    # three disjoint triples at k = 9 give a full span at depth 3.
    # Depth-1 leaves with k2 <= 2 close in the constructor's array scan,
    # the others in the scalar term.
    cases = [
        (Hypergraph(7, (frozenset({1, 2}), frozenset({1, 2, 3}),
                        frozenset({3, 4, 5}))), k)
        for k in (4, 5, 6)
    ]
    same_pair = (frozenset({1, 2, 3, 6}), frozenset({1, 2, 3}),
                 frozenset({1, 2, 6}), frozenset({3, 4, 5}), frozenset({6, 7, 8}))
    cases += [(Hypergraph(10, same_pair), k) for k in (5, 6, 7, 8)]
    cases += [(Hypergraph(10, (frozenset({1, 2}),) + same_pair), k) for k in (6, 8)]
    triples = ((2, 6, 8), (1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 5, 9), (3, 4, 10))
    cases.append((Hypergraph(11, tuple(frozenset(e) for e in triples)), 9))
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(7, 11)
        arities = {a: rng.randint(0, 6) for a in (2, 3, 4, 5)}
        H = random_hypergraph(rng, n, arities)
        cases += [(H, k) for k in (3, 4, 5, 6)]
    leaves: set[int] = set()
    scanned: set[int] = set()
    real_term = kis._InvalidCounter.term
    real_scan = kis._InvalidCounter._scan

    def term(self, members, span_mask, span_size):
        leaves.add(min(self.k - span_size, 3))
        return real_term(self, members, span_mask, span_size)

    def scan(self, rows):
        scanned.update(min(self.k - int(s), 3) for s in self.s[rows])
        return real_scan(self, rows)

    monkeypatch.setattr(kis._InvalidCounter, "term", term)
    monkeypatch.setattr(kis._InvalidCounter, "_scan", scan)
    for H, k in cases:
        assert count_invalid(H, k) == brute_count_invalid(H, k), (H, k)
        assert count_k_is_hypergraph(H, k) == brute_count_k_is(H, k), (H, k)
    assert leaves == {0, 1, 2, 3}
    assert scanned == {0, 1, 2, 3}


def test_small_leaves_skip_the_clique_engine(monkeypatch):
    # n = 40, 60 pairs, 400 triples, k = 5: every IE term is a single
    # triple with a 2-vertex residual, closed by popcount, so the base
    # count is the only clique-engine call.
    H = random_hypergraph(random.Random(72), 40, {2: 60, 3: 400})
    base = count_k_is(underlying_graph(H), 5)
    calls: list[int] = []
    real_count = kis.cliques.count_k_is_masks

    def counting(rows, alive, k):
        calls.append(k)
        return real_count(rows, alive, k)

    monkeypatch.setattr(kis.cliques, "count_k_is_masks", counting)
    got = count_k_is_mixed(H, 5)
    assert 0 < got < base
    assert calls == [5]


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
            cands = set(counter.cands)
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


def counter_for(H: Hypergraph, k: int) -> "kis._InvalidCounter":
    rows = underlying_graph(H).adjacency
    return kis._InvalidCounter(rows, (1 << H.n) - 1, H.edge_masks, k)


def bulk_levels(counter) -> tuple[int, int]:
    """The two levels the counter evaluates as arrays: depth-1 terms with
    k2 <= 2, and depth-2 terms whose span has k vertices."""
    return counter.level1, counter._full_pairs()


def scalar_levels(counter) -> tuple[int, int]:
    """The same two levels through the scalar term, over every matching
    the recursion could keep, edges holding an earlier edge included."""
    k, span = counter.k, counter.span
    size = {idx: m.bit_count() for idx, m in span.items()}
    ok = [idx for idx, m in span.items()
          if size[idx] <= k and all(counter.adj[v - 1] & m == 0 for v in _vertices(m))]
    one = sum(counter.term([e], span[e], size[e]) for e in ok if k - size[e] <= 2)
    two = sum(
        counter.term([a, b], span[a] | span[b], k)
        for a, b in itertools.combinations(ok, 2)
        if size[a] + size[b] == k and span[b] & (span[a] | counter.nbrs[a]) == 0
    )
    return one, two


def definition_levels(H: Hypergraph, k: int) -> tuple[int, int]:
    """The same two levels straight from the definition of a term."""
    one = sum(term_by_definition(H, S, k) for S in enumerate_matchings(H, 1)
              if k - 2 <= len(S.span) <= k)
    two = sum(term_by_definition(H, S, k) for S in enumerate_matchings(H, 2)
              if len(S.span) == k)
    return one, two


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bulk_levels_match_scalar_terms_and_definition():
    rng = random.Random(81)
    levels = set()
    for _ in range(40):
        n = rng.randint(7, 10)
        arities = {a: rng.randint(0, 6) for a in (2, 3, 4, 5)}
        H = random_hypergraph(rng, n, arities)
        for k in range(3, 9):
            counter = counter_for(H, k)
            got = bulk_levels(counter)
            assert got == scalar_levels(counter) == definition_levels(H, k), (H, k)
            assert counter.run() == brute_count_invalid(H, k), (H, k)
            levels.update(i for i, x in enumerate(got) if x)
    assert levels == {0, 1}


def triple_inside_a_four_edge() -> tuple[Hypergraph, tuple[int, ...]]:
    # {1,2,3,4} holds the earlier {1,2,3}: its depth-1 term and every
    # pair through it are dead, so it is no candidate.
    edges = ((1, 2, 3), (1, 2, 3, 4), (5, 6, 7), (4, 8, 9), (2, 5, 9))
    return Hypergraph(10, tuple(frozenset(e) for e in edges)), (5, 6, 7)


def shared_leftover_pair() -> tuple[Hypergraph, tuple[int, ...]]:
    # {1,5,6} and {2,5,6} both leave {5,6} beside the later {1,2,3}; the
    # pair leaves its 2-sets once.
    edges = ((1, 5, 6), (2, 5, 6), (3, 7, 8), (1, 2, 3), (6, 7, 9))
    return Hypergraph(10, tuple(frozenset(e) for e in edges)), (5, 6)


def two_by_two_split() -> tuple[Hypergraph, tuple[int, ...]]:
    # {1,2,5,6} meets {1,2,3,4} and {5,6,7,8} in two vertices each and
    # comes first, so their full-span pair dies; {3,4,9,10} does the same
    # to {1,2,3,4} and {9,10,11,12} but comes after both, so it kills
    # nothing.
    edges = ((1, 2, 5, 6), (1, 2, 3, 4), (5, 6, 7, 8), (3, 4, 7, 8),
             (9, 10, 11, 12), (3, 4, 9, 10))
    return Hypergraph(12, tuple(frozenset(e) for e in edges)), (8,)


def over_64_vertices() -> tuple[Hypergraph, tuple[int, ...]]:
    # Edges among vertices 58..71, across the first 64-bit word, and 58
    # isolated vertices below them.
    rng = random.Random(82)
    core = random_hypergraph(rng, 14, {2: 6, 3: 10, 4: 6, 5: 3})
    edges = tuple(frozenset(v + 57 for v in e) for e in core.edges)
    return Hypergraph(71, edges), (5, 6)


def invalid_with_isolated_vertices(H: Hypergraph, k: int, low: int) -> int:
    """count_invalid when vertices 1..low touch no edge: choose the rest
    among the others, where the exhaustive count is cheap."""
    core = Hypergraph(H.n - low, tuple(frozenset(v - low for v in e) for e in H.edges))
    return sum(
        math.comb(low, k - j) * brute_count_invalid(core, j) for j in range(3, k + 1)
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "build",
    [triple_inside_a_four_edge, shared_leftover_pair, two_by_two_split, over_64_vertices],
)
def test_bulk_levels_on_named_instances(build):
    H, ks = build()
    seen = 0
    for k in ks:
        counter = counter_for(H, k)
        got = bulk_levels(counter)
        seen += sum(got)
        assert got == scalar_levels(counter)
        if H.n > 64:
            # The definition scans every k-set of 71 vertices.
            want = invalid_with_isolated_vertices(H, k, 57)
        else:
            assert got == definition_levels(H, k)
            want = brute_count_invalid(H, k)
        assert counter.run() == want == count_invalid(H, k)
        if build is triple_inside_a_four_edge:
            nested = H.order_index(frozenset({1, 2, 3, 4}))
            assert nested not in counter.cands
            assert counter.term([nested], 0b1111, 4) == 0
        if build is shared_leftover_pair and k == 5:
            # The universe is {4, ..., 10}, and two of its 2-sets are the
            # leftover pairs {5, 6} and {7, 8}.
            late = H.order_index(frozenset({1, 2, 3}))
            assert counter.term([late], 0b111, 3) == math.comb(7, 2) - 2
    assert seen


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cells", [1, 24])
def test_bulk_levels_in_tiny_blocks(monkeypatch, cells):
    # One row per block with a single cell, one or more with 24 cells:
    # every blocked pass runs many triangular blocks, among them the
    # block holding position 0 alone, which reads no earlier edge.
    monkeypatch.setattr(kis, "_BLOCK_CELLS", cells)
    blocks: list[tuple[int, int]] = []
    real_scan = kis._InvalidCounter._scan

    def scan(self, block):
        assert len(block) <= max(1, cells // len(self.s))
        blocks.append((len(block), int(block[-1])))
        return real_scan(self, block)

    monkeypatch.setattr(kis._InvalidCounter, "_scan", scan)
    cases = []
    for build in (triple_inside_a_four_edge, shared_leftover_pair, two_by_two_split,
                  over_64_vertices):
        H, ks = build()
        cases += [(H, k) for k in ks]
    rng = random.Random(83)
    for _ in range(12):
        n = rng.randint(7, 10)
        H = random_hypergraph(rng, n, {a: rng.randint(0, 6) for a in (2, 3, 4, 5)})
        cases += [(H, k) for k in range(3, 9)]
    for H, k in cases:
        counter = counter_for(H, k)
        got = bulk_levels(counter)
        assert got == scalar_levels(counter), (H, k)
        if H.n > 64:
            assert counter.run() == invalid_with_isolated_vertices(H, k, 57)
        else:
            assert got == definition_levels(H, k), (H, k)
            assert counter.run() == brute_count_invalid(H, k), (H, k)
    assert (1, 0) in blocks
    assert max(rows for rows, _ in blocks) > 1 or cells == 1


def test_first_leftover_table_is_built_only_for_full_span_pairs(monkeypatch):
    built: list[int] = []
    real = kis._InvalidCounter._first_leftovers

    def counted(self, rows):
        built.append(len(rows))
        return real(self, rows)

    monkeypatch.setattr(kis._InvalidCounter, "_first_leftovers", counted)
    # Triples at k = 5: no two candidate sizes sum to k.
    H = random_hypergraph(random.Random(72), 40, {2: 60, 3: 400})
    assert count_k_is_mixed(H, 5) > 0
    assert built == []
    H, (k,) = two_by_two_split()
    assert count_invalid(H, k) == brute_count_invalid(H, k)
    assert len(built) == 1


def test_bulk_term_outside_its_range_raises():
    # Self-loops on 4 and 5 make the pair count inside the universe
    # {4, 5} exceed its one 2-set, a term no consistent rows can give.
    rows = [0, 0, 0, 0b11000, 0b11000]
    with pytest.raises(VerificationError, match="outside"):
        kis._InvalidCounter(rows, 0b11111, [0b111], 5)


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


@pytest.mark.parametrize("budget", ["default", "zero", "count"])
def test_decide_matches_oracle_on_mixed_arities(monkeypatch, budget):
    # With the default budget the search settles every instance this
    # small (under 2^9 nodes), so no count runs.  With a zero budget the
    # greedy sweep runs, and whatever it misses (or finds holding a large
    # edge) takes the count and counting self-reduction; "count" also
    # turns the greedy off, so every instance takes that path, which must
    # stay on masks: one mask conversion per call, and no Hypergraph or
    # induced copy.
    def boom(*args):
        raise AssertionError("left the masks during the self-reduction")

    converted: list[Hypergraph] = []
    real_masks = kis._masks

    def masks_once(H, k):
        converted.append(H)
        return real_masks(H, k)

    greedy_calls: list[int] = []

    def no_greedy(rows, alive, k):
        greedy_calls.append(k)
        return None

    if budget != "default":
        monkeypatch.setattr(kis, "SEARCH_NODE_BUDGET", 0)
        if budget == "count":
            monkeypatch.setattr(kis.turan, "find_k_is_masks", no_greedy)
            monkeypatch.setattr(kis, "_masks", masks_once)
    else:
        def boom_count(*args):
            raise AssertionError("counted an instance the search should settle")

        monkeypatch.setattr(kis, "_count_mixed", boom_count)
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(2, 9)
        counts = {
            a: min(rng.randint(0, 4), math.comb(n, a))
            for a in range(2, min(6, n) + 1)
        }
        H = random_hypergraph(rng, n, counts)
        for k in range(0, n + 2):
            want = brute_count_k_is(H, k) > 0
            with monkeypatch.context() as m:
                if budget == "count":
                    m.setattr(kis, "Hypergraph", boom)
                    m.setattr(Hypergraph, "__post_init__", boom)
                    m.setattr(hypergraph, "induced", boom)
                    converted.clear()
                got, wit = decide_k_is(H, k, want_witness=True)
                if budget == "count":
                    assert converted == [H]
            assert got == want, (H, k)
            assert decide_k_is(H, k) == (want, None)
            if not got:
                assert wit is None
                if budget == "default":
                    with pytest.raises(VerificationError):
                        kis.witness_k_is(H, k)
                continue
            for w in (wit, kis.witness_k_is(H, k)):
                assert len(w) == k and all(1 <= v <= n for v in w)
                assert all(not e <= w for e in H.edges)
    assert bool(greedy_calls) == (budget == "count")


def test_budget_hit_searches_once(monkeypatch):
    # Five disjoint pair 20-cliques, n = 100, k = 6: the search spends its
    # budget, the greedy finds no 6-set, and the count says NO.  That
    # count must reuse the search's outcome, not search again.
    pairs = [frozenset(p) for b in range(0, 100, 20)
             for p in itertools.combinations(range(b + 1, b + 21), 2)]
    H = Hypergraph(100, tuple(pairs))
    searches: list[int] = []
    real_search = kis._search_k_is

    def counting_search(rows, alive, big, k):
        searches.append(k)
        return real_search(rows, alive, big, k)

    monkeypatch.setattr(kis, "_search_k_is", counting_search)
    assert decide_k_is(H, 6) == (False, None)
    assert searches == [6]


def reference_find(rows, alive, big, k):
    """The greedy reference on the pair graph inside `alive`, relabelled
    to 1..|alive|, with a set holding a `big` mask rejected."""
    pool = [v for v in range(1, len(rows) + 1) if alive >> (v - 1) & 1]
    pos = {v: i + 1 for i, v in enumerate(pool)}
    edges = {
        frozenset((pos[u], pos[v]))
        for u in pool
        for v in pool
        if u < v and rows[u - 1] >> (v - 1) & 1
    }
    try:
        got = greedy_k_is(Graph(len(pool), tuple(edges)), k)
    except VerificationError:
        return "error"
    if got is None:
        return False, None
    mask = sum(1 << (pool[i - 1] - 1) for i in got)
    if any(m & ~mask == 0 for m in big):
        return False, None
    return True, mask


def test_greedy_behind_the_search_matches_reference(monkeypatch):
    # With no search budget `_find_k_is` is the greedy alone, so its
    # picks on any (rows, alive, big) are the reference's.
    monkeypatch.setattr(kis, "SEARCH_NODE_BUDGET", 0)
    rng = random.Random(62)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 40)
        p = rng.choice([0.02, 0.1, 0.3, 0.6])
        rows = [0] * n
        for u, v in itertools.combinations(range(1, n + 1), 2):
            if rng.random() < p:
                rows[u - 1] |= 1 << (v - 1)
                rows[v - 1] |= 1 << (u - 1)
        alive = sum(1 << i for i in range(n) if rng.random() < 0.8)
        pool = [v for v in range(1, n + 1) if alive >> (v - 1) & 1]
        k = rng.randint(0, 8)
        big = []
        for _ in range(rng.randint(0, 6) if len(pool) >= 3 else 0):
            size = rng.randint(3, max(3, min(k, len(pool))))
            big.append(sum(1 << (v - 1) for v in rng.sample(pool, size)))
        want = reference_find(rows, alive, big, k)
        try:
            got = kis._find_k_is(rows, alive, big, k)
        except VerificationError:
            got = "error"
        assert got == want, (rows, alive, big, k)
        if want == (False, None) and reference_find(rows, alive, [], k) != want:
            want = "rejected"
        seen.add(want if want in ("error", "rejected", (False, None)) else "found")
    assert {"found", "rejected", (False, None)} <= seen


def turan_sparse_adversary() -> Hypergraph:
    """n = 400, k = 5: vertex 1 joined to 131..400, plus three pair
    43-cliques on 2..44, 45..87 and 88..130.  m = 2979, so 2 k^2 m <= n^2
    and the greedy sweep must succeed, while the search spends its whole
    budget in the roughly 43^3 branches under vertex 1."""
    edges = [frozenset((1, v)) for v in range(131, 401)]
    for lo, hi in ((2, 44), (45, 87), (88, 130)):
        edges += [frozenset(p) for p in itertools.combinations(range(lo, hi + 1), 2)]
    return Hypergraph(400, tuple(edges))


@pytest.mark.parametrize("route", ["decide", "cli", "csp", "nand_impl"])
def test_turan_sparse_adversary_is_found_fast(tmp_path, capsys, route):
    # The search hits its budget here and the clique engine would exceed
    # its node cap; the greedy sweep behind the search must answer instead.
    H = turan_sparse_adversary()
    assert 2 * 5 * 5 * H.m <= H.n * H.n
    nands = tuple((NAND2, tuple(sorted(e))) for e in H.edges)
    start = time.perf_counter()
    if route == "decide":
        got, wit = decide_k_is(H, 5, want_witness=True)
        assert got and len(wit) == 5
        assert all(not e <= wit for e in H.edges)
    elif route == "cli":
        p = tmp_path / "adv.hgr"
        p.write_text(format_hgr(H))
        assert main(["solve-kis", str(p), "-k", "5", "--witness"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "YES"
        wit = frozenset(int(v) for v in lines[1].split()[1:])
        assert len(wit) == 5 and all(not e <= wit for e in H.edges)
    elif route == "csp":
        res = solve_csp(CspInstance(400, nands), 5)
        assert res.satisfiable and len(res.assignment) == 5
    else:
        assert solve_nand_impl(CspInstance(400, nands + ((IMPL, (300, 301)),)), 5)
    assert time.perf_counter() - start < 1.0
