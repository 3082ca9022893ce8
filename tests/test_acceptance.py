"""Acceptance gate: one test per numbered criterion.

The per-criterion verdict lines are printed by the conftest summary
hook; sizes, tolerances, and instance counts here are the contract.
"""

import gc
import itertools
import math
import random
import statistics
import time
import warnings

from conftest import gnp_graph, random_csp, random_graph, random_hypergraph
from matchings import enumerate_matchings
from test_csp import CLASSIFY_FIXTURE
from test_kis import term_by_definition
from test_reductions import AND2, ATMOST1OF3, source_has_independent_transversal

from sparsekis import (
    ConstraintFunction,
    CspInstance,
    EQ2,
    Hypergraph,
    IMPL,
    NAND2,
    NEVER1,
    NOR2,
    OR2,
    brute_count_k_is,
    brute_solve_csp,
    build_less_than,
    classify_binary_family,
    count_invalid,
    count_k_cliques,
    count_k_is_hypergraph,
    count_k_is_mixed,
    dense_embed,
    find_k_is_sparse,
    gen_binary_hardness,
    gen_kis_sparse_lb,
    gen_mixed_lb,
    solve_csp,
    sparse_embed,
    u_min,
)

NAND3 = ConstraintFunction("nand3", 3, (1,) * 7 + (0,))


def test_c01_three_uniform_oracle_equivalence():
    rng = random.Random(101)
    t0 = time.monotonic()
    for i in range(200):
        n = 8 + i % 7
        gamma = 1.5 + (i % 16) / 15 * 1.5
        m = min(math.ceil(n**gamma), math.comb(n, 3))
        H = random_hypergraph(rng, n, {3: m})
        k = 3 if i % 2 else 6
        assert count_k_is_hypergraph(H, k) == brute_count_k_is(H, k)
    assert time.monotonic() - t0 < 60


def test_c02_mixed_arity_oracle_equivalence():
    rng = random.Random(102)
    for i in range(100):
        n = 8 + i % 5
        counts = {r: rng.randint(0, 3) for r in (2, 3, 4, 5)}
        if not any(counts.values()):
            counts[4] = 1
        H = random_hypergraph(rng, n, counts)
        k = 2 + i % 5
        want = brute_count_k_is(H, k)
        assert count_k_is_hypergraph(H, k) == want
        assert count_k_is_mixed(H, k) == want


def test_c03_clique_engine_vs_enumeration():
    rng = random.Random(103)
    for i in range(50):
        G = gnp_graph(rng, 12, (0.2, 0.5, 0.8)[i % 3])
        adj = {v: set() for v in range(1, 13)}
        for e in G.edges:
            u, v = e
            adj[u].add(v)
            adj[v].add(u)
        for k in (3, 4, 5, 6):
            want = sum(
                1
                for c in itertools.combinations(range(1, 13), k)
                if all(b in adj[a] for a, b in itertools.combinations(c, 2))
            )
            assert count_k_cliques(G, k) == want


def test_c04_turan_greedy_on_premise():
    rng = random.Random(104)
    for i in range(100):
        k = 3 + i % 3
        n = 4 * k * k
        m = n * n // (2 * k * k)
        G = random_graph(rng, n, m)
        got = find_k_is_sparse(G, k)
        assert got is not None and len(got) == k
        assert G.is_independent(got)


def test_c05_invalid_count_order_invariant():
    rng = random.Random(105)
    for _ in range(20):
        H = random_hypergraph(rng, 11, {3: 12})
        base = count_invalid(H, 5)
        edges = list(H.edges)
        for _ in range(20):
            rng.shuffle(edges)
            assert count_invalid(Hypergraph(11, tuple(edges)), 5) == base


def test_c06_deep_matchings_contribute_nothing():
    rng = random.Random(106)
    checked = 0
    for i in range(12):
        n = 9 + i % 2
        H = random_hypergraph(rng, n, {3: 8 + i % 5})
        for k in (3, 5, 6):
            for size in range(k // 3 + (k % 3 > 0) + 1, n // 3 + 1):
                for S in enumerate_matchings(H, size):
                    assert term_by_definition(H, S, k) == 0
                    checked += 1
    assert checked > 100


def test_c07_csp_dispatcher_vs_oracle():
    rng = random.Random(107)
    funcs = [NAND2, IMPL, EQ2, OR2, NOR2, NEVER1]
    for i in range(300):
        if i % 5 == 0:
            fam = [NAND2, IMPL]
        else:
            fam = rng.sample(funcs, rng.randint(1, 3))
        n = 6 + i % 9
        phi = random_csp(rng, n, fam, rng.randint(1, 2 * n))
        k = i % 6
        got = solve_csp(phi, k)
        assert got.satisfiable == (brute_solve_csp(phi, k) is not None)
        if got.satisfiable:
            assert len(got.assignment) == k
            assert phi.satisfied_by(got.assignment)


def test_c08_twelve_family_classification():
    assert len(CLASSIFY_FIXTURE) == 12
    for fam, kind, offset in CLASSIFY_FIXTURE:
        r = classify_binary_family(fam)
        assert (r.kind, r.offset) == (kind, offset)


def _random_nand_instance(rng, lo=3, hi=5):
    n = rng.randint(lo, hi)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    return CspInstance(n, tuple(
        (NAND2, p) for p in pairs[: rng.randint(1, len(pairs))]
    ))


def test_c09_embedding_double_oracles():
    rng = random.Random(109)
    for i in range(50):
        phi = _random_nand_instance(rng)
        k = i % 4
        out = dense_embed(phi, ATMOST1OF3, (2.0, 2.5, 3.0)[i % 3], k)
        assert (brute_solve_csp(out, k) is None) == (brute_solve_csp(phi, k) is None)

    for i in range(50):
        phi = _random_nand_instance(rng)
        k = (0, 2, 3)[i % 3]
        out = sparse_embed(phi, NAND2, 1.0, k, delta=1.5)
        assert (brute_solve_csp(out, k) is None) == (brute_solve_csp(phi, k) is None)

    for i in range(50):
        n = rng.randint(4, 7)
        edges = set()
        while len(edges) < rng.randint(2, 5):
            edges.add(frozenset(rng.sample(range(1, n + 1), 3)))
        hstar = Hypergraph(n, tuple(edges))
        k = 2 + i % 3
        out = gen_kis_sparse_lb(hstar, (2.0, 2.5, 3.0)[i % 3])
        assert (brute_count_k_is(out, k) > 0) == (brute_count_k_is(hstar, k) > 0)

    for i in range(50):
        if i % 2:
            parts, gamma = (2, 2, 2, 2), 3.5
        else:
            parts, gamma = (2, 2, 2), 2.5
        arity = 4 if (i // 2) % 2 else 5
        edges = set()
        for _ in range(rng.randint(1, 5)):
            chosen = rng.sample(range(len(parts)), 3)
            edges.add(frozenset(2 * p + rng.choice((1, 2)) for p in chosen))
        H, k2 = gen_mixed_lb(parts, tuple(edges), arity, gamma)
        assert (brute_count_k_is(H, k2) > 0) == (
            source_has_independent_transversal(parts, edges)
        )

    for i in range(50):
        phi = _random_nand_instance(rng)
        fam = ((EQ2,), (OR2,), (AND2,))[i % 3]
        out, s = gen_binary_hardness(phi, fam, (1.5, 2.0)[i % 2])
        k = i % 3
        assert (brute_solve_csp(out, k + s) is None) == (
            brute_solve_csp(phi, k) is None
        )


def test_c10_weight_window_spectrum():
    for f in (NAND2, NAND3, ATMOST1OF3):
        h, c = f.arity, u_min(f)
        for K in range(h, 9):
            block = tuple(range(1, K + 1))
            cons = build_less_than(f, K, block)
            k = K - h
            for r in range(K + 1):
                for sub in itertools.combinations(block, r):
                    t = set(sub)
                    sat = all(
                        g([1 if v in t else 0 for v in vs]) for g, vs in cons
                    )
                    if r < c:
                        assert sat
                    elif r <= k:
                        assert not sat


def test_c11_sparse_linear_routes_and_scaling():
    rng = random.Random(111)
    for i in range(100):
        k = 2 + i % 4
        n = 120 + (i % 5) * 30
        phi = random_csp(rng, n, [NAND2], n // (2 * k) - 1)
        res = solve_csp(phi, k)
        assert res.route == "free variables" and res.satisfiable
        assert len(res.assignment) == k and phi.satisfied_by(res.assignment)

    for i in range(100):
        k = 2 + i % 4
        n = 50 + (i % 5) * 10
        phi = random_csp(rng, n, [NAND3], max(1, n // 8))
        res = solve_csp(phi, k)
        assert res.route == "sparse greedy" and res.satisfiable
        assert len(res.assignment) == k and phi.satisfied_by(res.assignment)

    # Soft wall-time scaling: each doubling of (n + m) should cost at
    # most 2.5x, median of 5 warmed runs per cell.  Breaches of the
    # soft bound surface as warnings; only clearly superlinear growth
    # (a quadratic route would show 4x per doubling) fails hard.
    for fam, mk in (([NAND2], lambda n: n // 6 - 1), ([NAND3], lambda n: n // 6)):
        medians = []
        for exp in range(12, 17):
            n = 2**exp
            phi = random_csp(random.Random(exp), n, fam, mk(n))
            assert solve_csp(phi, 3).satisfiable
            times = []
            for _ in range(5):
                gc.collect()
                t0 = time.monotonic()
                res = solve_csp(phi, 3)
                times.append(time.monotonic() - t0)
                assert res.satisfiable
            medians.append(statistics.median(times))
        for prev, cur in zip(medians, medians[1:]):
            ratio = cur / max(prev, 1e-4)
            assert ratio <= 3.5
            if ratio > 2.5:
                warnings.warn(
                    f"{fam[0].name} doubling cost {ratio:.2f}x "
                    f"(medians {['%.4f' % m for m in medians]})"
                )


def test_c12_inclusion_exclusion_smoke():
    rng = random.Random(1234)
    H = random_hypergraph(rng, 60, {3: 3600})
    assert H.m == 60 * 60
    t0 = time.monotonic()
    count = count_k_is_mixed(H, 6)
    assert time.monotonic() - t0 < 120
    assert count >= 0

    # Documented contrast: beyond brute-force reach, still minutes-free.
    assert math.comb(80, 9) > 10**11
    rng = random.Random(4321)
    H2 = random_hypergraph(rng, 80, {2: 1711, 3: 4689})
    t0 = time.monotonic()
    count2 = count_k_is_mixed(H2, 9)
    assert time.monotonic() - t0 < 600
    assert count2 >= 0
