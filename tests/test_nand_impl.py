"""Exclusion-plus-implication pipeline: branching stages and the solver."""

import itertools
import random

import pytest

from sparsekis import (
    ConstraintFunction,
    CspInstance,
    EQ2,
    IMPL,
    NAND2,
    NOR2,
    NOT1,
    balance_partition,
    brute_solve_csp,
    permute_arguments,
    solve_csp,
    solve_nand_impl,
)
from sparsekis import cliques, csp, kis, nand_impl
from sparsekis.csp import _closure, _read, _root
from sparsekis.hypergraph import _mask, _vertices

from conftest import random_csp


def yes(phi: CspInstance, k: int) -> bool:
    return brute_solve_csp(phi, k) is not None


def masks(phi: CspInstance, k: int):
    """phi as the pipeline reads a leaf: the branch over its rows with
    every variable alive, none forced and budget k."""
    _, succ, pred, nand, _, _ = _read(phi)
    return nand_impl._Branch(succ, pred, nand, (1 << phi.n) - 1, 0, k)


def descendants(branch) -> list[int]:
    """Descendant masks inside the branch, by `_closure` on its rows."""
    return _closure([r & branch.alive for r in branch.succ], branch.alive)


def leaf_yes(phi: CspInstance, branch) -> bool:
    """Whether a branch of phi keeps a solution, by brute force: some
    `branch.k` alive variables that satisfy phi with the forced ones
    true and every other variable false."""
    forced = _vertices(branch.forced)
    return branch.k >= 0 and any(
        phi.satisfied_by(forced + list(c))
        for c in itertools.combinations(_vertices(branch.alive), branch.k)
    )


def assert_solution(phi: CspInstance, k: int, got) -> None:
    """A YES mask is a weight-k solution of phi."""
    if got is not None:
        assert got.bit_count() == k and phi.satisfied_by(_vertices(got)), (phi, k, got)


def random_nand_impl(rng, n, m_nand, m_impl, m_eq=0):
    cons = []
    seen = set()
    while len(cons) < m_nand:
        vs = tuple(rng.sample(range(1, n + 1), 2))
        key = ("n", frozenset(vs))
        if key in seen:
            m_nand -= 1
            continue
        seen.add(key)
        cons.append((NAND2, vs))
    while len(cons) < m_nand + m_impl:
        vs = tuple(rng.sample(range(1, n + 1), 2))
        key = ("i", vs)
        if key in seen:
            m_impl -= 1
            continue
        seen.add(key)
        cons.append((IMPL, vs))
    while len(cons) < m_nand + m_impl + m_eq:
        vs = tuple(rng.sample(range(1, n + 1), 2))
        key = ("e", frozenset(vs))
        if key in seen:
            m_eq -= 1
            continue
        seen.add(key)
        cons.append((EQ2, vs))
    return CspInstance(n, tuple(cons))


def star_instance(rng, n, nand_draws):
    """Stars laid out from vertex 1 while five vertices remain: a sink,
    then 2-4 sources, each implying the sink, pairwise NAND among
    themselves; then `nand_draws` random NAND pairs, repeats skipped."""
    cons = []
    seen = set()
    v = 1
    while n - v + 1 >= 5:
        sink = v
        sources = list(range(v + 1, v + 1 + rng.randint(2, 4)))
        v = sources[-1] + 1
        cons += [(IMPL, (s, sink)) for s in sources]
        for pair in itertools.combinations(sources, 2):
            seen.add(frozenset(pair))
            cons.append((NAND2, pair))
    for _ in range(nand_draws):
        pair = frozenset(rng.sample(range(1, n + 1), 2))
        if pair not in seen:
            seen.add(pair)
            cons.append((NAND2, tuple(sorted(pair))))
    return CspInstance(n, tuple(cons))


def test_restrict_no_heavy_single_emission():
    phi = CspInstance(5, ((NAND2, (1, 2)), (IMPL, (3, 4))))
    out = list(nand_impl._restrict(masks(phi, 3)))
    assert len(out) == 1
    branch = out[0]
    assert branch.k == 3 and branch.alive.bit_count() == 5


def test_restrict_cone_consumes_budget():
    # v's cone is {v, a, b}; guessing it in leaves nothing to spend.
    phi = CspInstance(3, ((IMPL, (1, 2)), (IMPL, (1, 3))))
    budgets = sorted(branch.k for branch in nand_impl._restrict(masks(phi, 3)))
    assert 0 in budgets


def test_restrict_output_is_light():
    rng = random.Random(51)
    for _ in range(20):
        n = rng.randint(4, 9)
        phi = random_nand_impl(rng, n, rng.randint(0, 4), rng.randint(0, 6))
        for branch in nand_impl._restrict(masks(phi, rng.randint(0, 4))):
            desc = descendants(branch)
            assert all(d.bit_count() <= 2 for d in desc)
            assert branch.k >= 0


def test_restrict_decision_preserving():
    rng = random.Random(52)
    for _ in range(30):
        n = rng.randint(4, 8)
        phi = random_nand_impl(rng, n, rng.randint(0, 4), rng.randint(0, 6))
        for k in (2, 3):
            want = yes(phi, k)
            got = any(
                leaf_yes(phi, branch) for branch in nand_impl._restrict(masks(phi, k))
            )
            assert got == want


def test_two_cycle_with_nand_drops_pair():
    # Mutually implying yet mutually exclusive: neither can be true.
    phi = CspInstance(4, (
        (IMPL, (1, 2)), (IMPL, (2, 1)), (NAND2, (1, 2)),
    ))
    out = list(nand_impl._two_cycle_branches(masks(phi, 2)))
    assert len(out) == 1
    branch = out[0]
    assert branch.k == 2 and branch.alive == _mask((3, 4))


def test_two_cycles_taken_whole():
    phi = CspInstance(5, ((IMPL, (1, 2)), (IMPL, (2, 1))))
    got = {
        (branch.k, branch.alive.bit_count())
        for branch in nand_impl._two_cycle_branches(masks(phi, 2))
    }
    # Either the pair is dropped (both deleted, full budget) or taken
    # (both deleted into the solution, budget falls by two).
    assert got == {(2, 3), (0, 3)}


def test_two_cycle_decision_preserving():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(6, 9)
        cons = [(IMPL, (1, 2)), (IMPL, (2, 1)), (IMPL, (3, 4)), (IMPL, (4, 3))]
        seen = set()
        for _ in range(rng.randint(0, 4)):
            vs = tuple(rng.sample(range(1, n + 1), 2))
            if frozenset(vs) in seen or frozenset(vs) in (
                frozenset((1, 2)), frozenset((3, 4))
            ):
                continue
            seen.add(frozenset(vs))
            cons.append((NAND2, vs))
        phi = CspInstance(n, tuple(cons))
        for k in (2, 3, 4):
            want = yes(phi, k)
            got = any(
                leaf_yes(phi, branch)
                for branch in nand_impl._two_cycle_branches(masks(phi, k))
            )
            assert got == want


def test_groups_pure_nand_single_pool():
    phi = CspInstance(4, ((NAND2, (1, 2)), (NAND2, (3, 4))))
    assert nand_impl._groups(masks(phi, 0)) == [(None, _mask((1, 2, 3, 4)))]


def test_groups_star():
    phi = CspInstance(4, ((IMPL, (1, 3)), (IMPL, (2, 3))))
    groups = nand_impl._groups(masks(phi, 0))
    assert (None, _mask((4,))) in groups
    assert (3, _mask((1, 2, 3))) in groups


def test_groups_partition_variables():
    rng = random.Random(54)
    for _ in range(25):
        n = rng.randint(5, 10)
        phi = random_nand_impl(rng, n, rng.randint(0, 4), rng.randint(0, 5))
        for branch in nand_impl._restrict(masks(phi, 3)):
            for b2 in nand_impl._two_cycle_branches(branch):
                seen = 0
                for _, members in nand_impl._groups(b2):
                    assert not (members & seen)
                    seen |= members
                assert seen == b2.alive


def test_single_group_solution_found_without_counting(monkeypatch):
    # The star group holds a full weight-3 solution, sink plus sources;
    # the search on that one group's pool finds it before any count.
    phi = CspInstance(6, ((IMPL, (1, 3)), (IMPL, (2, 3)), (NAND2, (4, 5))))

    def boom(*args):
        raise AssertionError("counted a pool the search settles")

    monkeypatch.setattr(cliques, "count_k_is_masks", boom)
    got = nand_impl._solve_acyclic(masks(phi, 3))
    assert got is not None
    assert_solution(phi, 3, got)


def test_groups_reject_heavy_and_cycles():
    heavy = CspInstance(3, ((IMPL, (1, 2)), (IMPL, (1, 3))))
    with pytest.raises(ValueError):
        nand_impl._groups(masks(heavy, 0))
    cyc = CspInstance(2, ((IMPL, (1, 2)), (IMPL, (2, 1))))
    with pytest.raises(ValueError):
        nand_impl._groups(masks(cyc, 0))


def test_balance_five_singletons():
    bins = balance_partition((1, 1, 1, 1, 1))
    sums = [sum(1 for _ in b) for b in bins]
    assert sorted(sums) == [1, 1, 1]
    assert sorted(i for b in bins for i in b) == [1, 2, 3]


def test_balance_two_parts_leaves_bins_empty():
    assert balance_partition((2, 2)) == ([], [], [])


def test_balance_requires_sorted():
    with pytest.raises(ValueError):
        balance_partition((3, 1, 2))


def test_balance_imbalance_bound():
    rng = random.Random(55)
    for _ in range(40):
        parts = sorted(rng.randint(1, 7) for _ in range(rng.randint(3, 9)))
        bins = balance_partition(parts)
        sums = [sum(parts[i - 1] for i in b) for b in bins]
        assert max(sums) - min(sums) <= parts[-3]
        binned = sorted(i for b in bins for i in b)
        assert binned == list(range(1, len(parts) - 1))


def test_solver_examples():
    phi = CspInstance(5, ((IMPL, (1, 2)), (NAND2, (2, 3))))
    assert solve_nand_impl(phi, 3)
    tri = CspInstance(3, ((NAND2, (1, 2)), (NAND2, (1, 3)), (NAND2, (2, 3))))
    assert not solve_nand_impl(tri, 2)
    assert solve_nand_impl(tri, 1)
    empty = CspInstance(4, ())
    for k in range(5):
        assert solve_nand_impl(empty, k)
    assert not solve_nand_impl(empty, 5)


@pytest.mark.parametrize("budget", ["default", "zero"])
def test_solve_restricted_matches_oracle(monkeypatch, budget):
    # A zero search budget sends every group pool through the greedy
    # sweep and then the exact count.
    if budget == "zero":
        monkeypatch.setattr(kis, "SEARCH_NODE_BUDGET", 0)
    rng = random.Random(56)
    for _ in range(30):
        n = rng.randint(4, 9)
        phi = random_nand_impl(rng, n, rng.randint(0, 5), rng.randint(0, 3))
        desc = descendants(masks(phi, 0))
        if any(d.bit_count() > 2 for d in desc):
            continue
        if any(
            desc[u - 1] >> (v - 1) & 1 and desc[v - 1] >> (u - 1) & 1
            for u, v in itertools.combinations(range(1, n + 1), 2)
        ):
            continue
        for k in range(0, 5):
            got = nand_impl._solve_acyclic(masks(phi, k))
            assert (got is not None) == yes(phi, k)
            assert_solution(phi, k, got)


@pytest.mark.parametrize("budget", ["default", "zero"])
def test_solver_matches_oracle(monkeypatch, budget):
    if budget == "zero":
        monkeypatch.setattr(kis, "SEARCH_NODE_BUDGET", 0)
    # EQ reads as two implications everywhere in the pipeline.
    rng = random.Random(57)
    for _ in range(90):
        n = rng.randint(4, 10)
        phi = random_nand_impl(
            rng, n, rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 3)
        )
        for k in range(0, 5):
            want = yes(phi, k)
            assert solve_nand_impl(phi, k) == want, (phi, k)
            got = nand_impl._solve_leaf(_root(phi, k))
            assert (got is not None) == want, (phi, k)
            assert_solution(phi, k, got)


def test_unsupported_arity_raises_after_the_early_answers():
    # A table of arity three is rejected, but only once the budget and a
    # zero weight have had their say.
    nand3 = ConstraintFunction("nand3", 3, (1,) * 7 + (0,))
    phi = CspInstance(5, ((nand3, (1, 2, 3)), (NAND2, (4, 5))))
    assert solve_nand_impl(phi, 0)
    for k in (1, 2, 3, 4, 5):
        with pytest.raises(ValueError, match="unsupported constraint 'nand3'"):
            solve_nand_impl(phi, k)
    assert not solve_nand_impl(phi, 6)


def test_negative_budget_raises_and_an_oversized_one_answers_no():
    # As solve_csp does: a sign error is the caller's, not a NO.
    phi = CspInstance(2, ((NAND2, (1, 2)),))
    with pytest.raises(ValueError, match="negative weight budget -1"):
        solve_nand_impl(phi, -1)
    assert solve_nand_impl(phi, 1) and not solve_nand_impl(phi, 3)


def test_pipeline_reads_pins_and_both_implication_directions(monkeypatch):
    # The pipeline reads a leaf as branching left it, so pin tables and
    # backward implications reach it unpropagated; at a zero state cap
    # solve_csp sends every such Clique leaf through it too, as the
    # branch its binary leaf solver read.
    monkeypatch.setattr(csp, "NAND_IMPL_STATE_CAP", 0)
    runs = []
    from_csp = 0
    real = nand_impl._solve_leaf
    real_branch = nand_impl._solve_branch

    def counted(branch):
        runs.append(1)
        return real_branch(branch)

    monkeypatch.setattr(nand_impl, "_solve_branch", counted)
    backward = permute_arguments(IMPL, (1, 0))
    family = [NAND2, IMPL, backward, EQ2, NOR2, NOT1]
    rng = random.Random(65)
    for _ in range(60):
        n = rng.randint(3, 9)
        phi = random_csp(rng, n, family, rng.randint(2, 2 * n))
        for k in range(0, n + 1):
            want = yes(phi, k)
            got = real(_root(phi, k))
            assert (got is not None) == want, (phi, k)
            assert_solution(phi, k, got)
            before = len(runs)
            assert solve_csp(phi, k).satisfiable == want, (phi, k)
            from_csp += len(runs) - before
    assert from_csp


def test_labels_do_not_change_answers():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(4, 9)
        phi = random_nand_impl(
            rng, n, rng.randint(0, 6), rng.randint(0, 4), rng.randint(0, 2)
        )
        labelled = CspInstance(n, phi.constraints, labels=tuple(range(2 * n, n, -1)))
        for k in range(0, n + 2):
            assert solve_nand_impl(labelled, k) == solve_nand_impl(phi, k), (phi, k)


def test_star_instances_reach_the_triangle_step(monkeypatch):
    # Sources of one star are pairwise NAND, so a solution of weight 3+
    # spreads over several stars and the triangle step has to decide.
    answers = []
    real = nand_impl._find_triangle

    def recording(*args):
        got = real(*args)
        answers.append(got is not None)
        return got

    monkeypatch.setattr(nand_impl, "_find_triangle", recording)
    rng = random.Random(63)
    for _ in range(12):
        n = rng.randint(10, 16)
        phi = star_instance(rng, n, rng.randint(0, 12))
        for k in range(3, 8):
            got = nand_impl._solve_leaf(_root(phi, k))
            assert (got is not None) == yes(phi, k), (phi, k)
            assert_solution(phi, k, got)
    assert True in answers and False in answers


def test_chunk_lists_built_once_per_call(monkeypatch):
    # A chunk list depends only on (group, take, whole), so within one
    # _solve_acyclic call no argument tuple may come round twice.
    calls: list[list[tuple]] = []
    real_chunks = nand_impl._chunks_for_split
    real_solve = nand_impl._solve_acyclic

    def spied_chunks(rows, sink, members, take, with_sink):
        calls[-1].append((sink, members, take, with_sink))
        return real_chunks(rows, sink, members, take, with_sink)

    def spied_solve(branch):
        calls.append([])
        return real_solve(branch)

    monkeypatch.setattr(nand_impl, "_chunks_for_split", spied_chunks)
    monkeypatch.setattr(nand_impl, "_solve_acyclic", spied_solve)
    rng = random.Random(63)
    for _ in range(6):
        n = rng.randint(12, 16)
        phi = star_instance(rng, n, rng.randint(0, 12))
        for k in range(3, 8):
            nand_impl._solve_leaf(_root(phi, k))
    assert sum(map(len, calls)) > 100
    for seen in calls:
        assert len(seen) == len(set(seen))
