"""The exhaustive reference solvers, pinned on hand-checkable instances."""

import pytest

from sparsekis import (
    CspInstance,
    Hypergraph,
    NAND2,
    ResourceLimit,
    brute_count_invalid,
    brute_count_k_is,
    brute_solve_csp,
)
from sparsekis import oracle


def test_single_edge_count():
    H = Hypergraph(4, (frozenset({1, 2, 3}),))
    assert brute_count_k_is(H, 3) == 3


def test_no_edges_counts_all_subsets():
    H = Hypergraph(5, ())
    assert brute_count_k_is(H, 2) == 10


def test_count_zero_and_oversized_k():
    H = Hypergraph(3, (frozenset({1, 2}),))
    assert brute_count_k_is(H, 0) == 1
    assert brute_count_k_is(H, 4) == 0


def test_unconstrained_csp_first_assignment():
    phi = CspInstance(3, ())
    assert brute_solve_csp(phi, 2) == (1, 2)


def test_nand_triangle_weight_two_unsat():
    phi = CspInstance(
        3, ((NAND2, (1, 2)), (NAND2, (2, 3)), (NAND2, (1, 3)))
    )
    assert brute_solve_csp(phi, 2) is None
    assert brute_solve_csp(phi, 1) == (1,)


def test_invalid_single_edge():
    H = Hypergraph(5, (frozenset({1, 2, 3}),))
    # 4-sets containing {1,2,3}: pick one of the other two vertices.
    assert brute_count_invalid(H, 4) == 2


def test_invalid_two_disjoint_edges():
    H = Hypergraph(7, (frozenset({1, 2, 3}), frozenset({4, 5, 6})))
    assert brute_count_invalid(H, 6) == 7


def test_invalid_respects_graph_independence():
    # The pair edge {1,4} kills supersets of {1,2,3} that also take 4.
    H = Hypergraph(
        5, (frozenset({1, 4}), frozenset({1, 2, 3}))
    )
    assert brute_count_invalid(H, 4) == 1  # only {1,2,3,5}


def test_cap_is_enforced(monkeypatch):
    # The cap is read at call time; C(40, 5) subsets fit the default.
    monkeypatch.setattr(oracle, "ORACLE_CAP", 1000)
    H = Hypergraph(40, ())
    with pytest.raises(ResourceLimit):
        brute_count_k_is(H, 5)
    phi = CspInstance(40, ())
    with pytest.raises(ResourceLimit):
        brute_solve_csp(phi, 5)


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        brute_count_k_is(Hypergraph(3, ()), -1)
