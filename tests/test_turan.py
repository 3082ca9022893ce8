"""Greedy sparse-regime solvers: guarantee premise, abstention, examples."""

import itertools
import random

import pytest

from sparsekis import (
    CspInstance,
    Graph,
    Hypergraph,
    IMPL,
    NAND2,
    NO_GUARANTEE,
    NOR2,
    OR2,
    brute_count_k_is,
    find_k_is_sparse,
    sparse_csp_solve,
    specialize,
)
from sparsekis.csp import ConstraintFunction
from sparsekis.errors import VerificationError

from conftest import gnp_graph, random_graph
from greedy import greedy_k_is, sparse_csp_greedy

NAND3 = ConstraintFunction("nand3", 3, (1, 1, 1, 1, 1, 1, 1, 0))


def test_empty_graph():
    out = find_k_is_sparse(Graph(5, ()), 3)
    assert out is not None and len(out) == 3


def test_star_takes_leaves():
    star = Graph(21, tuple(frozenset((1, v)) for v in range(2, 22)))
    out = find_k_is_sparse(star, 3)
    assert out is not None and len(out) == 3 and 1 not in out
    assert star.is_independent(out)


def test_k_zero_and_negative():
    assert find_k_is_sparse(Graph(4, ()), 0) == frozenset()
    with pytest.raises(ValueError):
        find_k_is_sparse(Graph(4, ()), -1)
    with pytest.raises(ValueError) as err:
        sparse_csp_solve(CspInstance(2, ((IMPL, (1, 2)),)), -1)
    assert type(err.value) is ValueError and str(err.value) == "negative k -1"


def test_premise_always_succeeds():
    # Below the density cutoff the sweep must never abstain.
    rng = random.Random(31)
    for _ in range(60):
        k = rng.choice([3, 4, 5])
        n = 4 * k * k + rng.randint(0, 10)
        m = rng.randint(0, n * n // (2 * k * k))
        G = random_graph(rng, n, m)
        out = find_k_is_sparse(G, k)
        assert out is not None and len(out) == k
        assert G.is_independent(out)


def test_dense_may_abstain_but_never_lies():
    rng = random.Random(32)
    gave = 0
    for _ in range(40):
        G = gnp_graph(rng, 10, 0.7)
        out = find_k_is_sparse(G, 4)
        if out is not None:
            assert len(out) == 4 and G.is_independent(out)
            gave += 1
        else:
            # Abstaining is only legitimate above the density cutoff.
            assert 2 * 16 * G.m > G.n * G.n
    del gave


def outcome(fn, *args):
    """fn's result, or "error" when it raises VerificationError."""
    try:
        return fn(*args)
    except VerificationError:
        return "error"


def test_sweep_picks_match_reference():
    # The greedy's picks are pinned: the same set (or None) as the
    # dict-of-sets reference, on graphs from empty to dense.
    rng = random.Random(37)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 40)
        k = rng.randint(0, 8)
        m = rng.randint(0, n * (n - 1) // 2 // rng.choice([1, 4, 16, 64]))
        G = random_graph(rng, n, m)
        want = outcome(greedy_k_is, G, k)
        assert outcome(find_k_is_sparse, G, k) == want, (G, k)
        seen.add(type(want))
    assert seen == {frozenset, type(None)}


def test_specialize_nand():
    g = specialize(NAND2, 1, 1)
    assert g.arity == 1 and g.table == (1, 0)
    h = specialize(NAND2, 1, 0)
    assert h.arity == 1 and h.is_constant_true


def test_specialize_matches_truth_table():
    rng = random.Random(33)
    for _ in range(30):
        arity = rng.randint(1, 4)
        f = ConstraintFunction(
            "t", arity, tuple(rng.randint(0, 1) for _ in range(2**arity))
        )
        pos = rng.randint(1, arity)
        val = rng.randint(0, 1)
        g = specialize(f, pos, val)
        assert g.arity == arity - 1
        for bits in itertools.product((0, 1), repeat=arity - 1):
            full = bits[: pos - 1] + (val,) + bits[pos - 1 :]
            assert g(bits) == f(full)


def test_csp_no_constraints():
    phi = CspInstance(10, ())
    out = sparse_csp_solve(phi, 4)
    assert out is not None and out is not NO_GUARANTEE and len(out) == 4


def test_csp_sparse_nand3():
    # Few ternary NANDs on many variables: well under the slack gate.
    rng = random.Random(34)
    n = 40
    cons = []
    seen = set()
    while len(cons) < 12:
        vs = tuple(rng.sample(range(1, n + 1), 3))
        if frozenset(vs) in seen:
            continue
        seen.add(frozenset(vs))
        cons.append((NAND3, vs))
    phi = CspInstance(n, tuple(cons))
    out = sparse_csp_solve(phi, 4)
    assert out is not None and len(out) == 4
    assert phi.satisfied_by(out)


def test_csp_umin_one_abstains():
    # NOR can be violated by a single true variable, so its table never
    # offers slack.  k=2 fails the entry gate; k=1 passes it and dies in
    # the round because every variable has a NOR incidence.
    phi = CspInstance(30, tuple(
        (NOR2, (2 * i + 1, 2 * i + 2)) for i in range(15)
    ))
    assert sparse_csp_solve(phi, 2) is NO_GUARANTEE
    assert sparse_csp_solve(phi, 1) is NO_GUARANTEE


def test_csp_rejects_non_zero_valid():
    phi = CspInstance(4, ((OR2, (1, 2)),))
    with pytest.raises(ValueError):
        sparse_csp_solve(phi, 1)


def test_csp_k_above_n():
    phi = CspInstance(3, ())
    assert sparse_csp_solve(phi, 4) is NO_GUARANTEE


def test_csp_answers_are_faithful():
    # Whenever the greedy commits, the assignment satisfies the instance.
    # Pure NAND families this small are always under the slack gate, so
    # there the greedy must commit; IMPL mixes may abstain.
    rng = random.Random(35)
    for _ in range(40):
        n = rng.randint(20, 30)
        fam = rng.choice([(NAND2,), (NAND3,), (NAND2, IMPL)])
        cons = []
        seen = set()
        want = rng.randint(1, 4)
        while len(cons) < want:
            f = rng.choice(fam)
            vs = tuple(rng.sample(range(1, n + 1), f.arity))
            if (f.name, frozenset(vs)) in seen:
                continue
            seen.add((f.name, frozenset(vs)))
            cons.append((f, vs))
        phi = CspInstance(n, tuple(cons))
        k = rng.randint(1, 3)
        out = sparse_csp_solve(phi, k)
        if out is not NO_GUARANTEE:
            assert phi.satisfied_by(out) and len(out) == k
        if IMPL not in fam:
            assert out is not NO_GUARANTEE


def test_greedy_never_misses_when_graph_has_answer_below_cutoff():
    # Sanity against the oracle: under the premise a k-set exists, and
    # the greedy's particular choice is one of the counted ones.
    rng = random.Random(36)
    for _ in range(15):
        k = 3
        n = 4 * k * k
        m = rng.randint(0, n * n // (2 * k * k))
        G = random_graph(rng, n, m)
        assert brute_count_k_is(Hypergraph(G.n, G.edges), k) > 0
        out = find_k_is_sparse(G, k)
        assert out is not None and G.is_independent(out)


def test_csp_greedy_matches_interning_reference(monkeypatch):
    # Random 0-valid tables of arity 2..4 (violated by no single true
    # variable, so slack is possible), twins under another name, and
    # specialisation that produces tables outside the family: the
    # greedy must make the reference's picks or abstain with it.
    from sparsekis import csp

    made = []
    real_specialize = csp.specialize

    def spied(f, position, value):
        g = real_specialize(f, position, value)
        made.append(g)
        return g

    monkeypatch.setattr(csp, "specialize", spied)
    rng = random.Random(37)
    outcomes = set()
    new_tables = 0
    for _ in range(400):
        fam = []
        for j in range(rng.randint(1, 3)):
            arity = rng.randint(2, 4)
            table = tuple(
                1 if bin(r).count("1") <= 1 else int(rng.random() < 0.6)
                for r in range(1 << arity)
            )
            if all(table):
                table = table[:-1] + (0,)
            fam.append(ConstraintFunction(f"g{j}", arity, table))
        if rng.random() < 0.3:
            fam.append(ConstraintFunction("twin", fam[0].arity, fam[0].table))
        n = rng.randint(12, 40)
        cons = [
            (f, tuple(rng.sample(range(1, n + 1), f.arity)))
            for f in (rng.choice(fam) for _ in range(rng.randint(1, 20)))
        ]
        phi = CspInstance(n, tuple(cons))
        k = rng.randint(1, 4)
        made.clear()
        got = sparse_csp_solve(phi, k)
        assert got == sparse_csp_greedy(phi, k), (phi, k)
        outcomes.add(got is NO_GUARANTEE)
        family_tables = {f.table for f in fam}
        new_tables += any(
            g.table not in family_tables and not g.is_constant_true for g in made
        )
    assert outcomes == {True, False}
    assert new_tables >= 10


def test_leaf_greedy_matches_reference_on_branch_leaves():
    # Tables that the all-false row may violate, so branching fixes
    # variables first: on every leaf the greedy, run in the caller's ids,
    # must pick what the reference picks on the leaf's renumbered
    # instance, mapped back through its labels, plus the forced ones.
    from sparsekis import csp
    from sparsekis.hypergraph import _mask

    rng = random.Random(41)
    outcomes = set()
    forced_hits = 0
    for _ in range(300):
        fam = []
        for j in range(rng.randint(1, 3)):
            arity = rng.randint(2, 4)
            table = tuple(
                int(rng.random() < 0.7) if r == 0
                else 1 if bin(r).count("1") == 1
                else int(rng.random() < 0.6)
                for r in range(1 << arity)
            )
            if all(table):
                table = table[:-1] + (0,)
            fam.append(ConstraintFunction(f"g{j}", arity, table))
        n = rng.randint(8, 30)
        cons = [
            (f, tuple(rng.sample(range(1, n + 1), f.arity)))
            for f in (rng.choice(fam) for _ in range(rng.randint(1, 12)))
        ]
        phi = CspInstance(n, tuple(cons))
        k = rng.randint(1, 4)
        for leaf in csp._branch(phi, k):
            inst = csp._checked(phi, leaf)
            ref = sparse_csp_greedy(inst, leaf.k)
            want = None if ref is None else leaf.forced | _mask(inst.label_of(v) for v in ref)
            got = csp._greedy(leaf)
            assert got == want, (phi, k, leaf)
            outcomes.add(got is None)
            forced_hits += got is not None and leaf.forced != 0
    assert outcomes == {True, False}
    assert forced_hits >= 20


NOR3 = ConstraintFunction("nor3", 3, (1, 0, 0, 0, 0, 0, 0, 0))
AMO3 = ConstraintFunction("amo3", 3, (1, 1, 1, 0, 1, 0, 0, 0))
AMO4 = ConstraintFunction("amo4", 4, tuple(int(bin(j).count("1") <= 1) for j in range(16)))


def test_leaf_greedy_window_matches_reference():
    # The greedy lists incidences only for ids up to a window bound,
    # first one 64-bit word, doubled whenever every candidate below it
    # fails.  NOR3s on a prefix of the ids make every variable there
    # fail (u_min 1), so the window has to widen once or twice.  Past
    # the prefix, at-most-one constraints of arity 3 and 4 and NAND3s
    # hold most variables; a pick that holds an at-most-one constraint
    # specialises it into a new class of u_min 1 that rules its partners
    # out in later rounds, partners that the window must list.  The
    # picks must be the reference's, which lists every variable from
    # the start.
    from sparsekis import csp
    from sparsekis.hypergraph import _mask

    rng = random.Random(43)
    past = {64: 0, 128: 0}
    derived = 0
    for _ in range(200):
        k = rng.randint(1, 4)
        prefix = rng.choice((0, 60, 63, 64, 65, 66, 120, 126, 127, 128, 129))
        cons = [(NOR3, (v, v + 1, v + 2)) for v in range(1, prefix + 1, 3)]
        n = max(prefix + rng.randint(30, 90), 2 * k * 4 * len(cons))
        rest = range(max(1, prefix - 4), n + 1)
        for _ in range(rng.randint(n // 4, n)):
            f = rng.choice((AMO3, AMO3, AMO4, NAND3))
            cons.append((f, tuple(rng.sample(rest, f.arity))))
        phi = CspInstance(n, tuple(cons))
        ref = sparse_csp_greedy(phi, k)
        got = csp._greedy(csp._root(phi, k))
        assert got == (None if ref is None else _mask(ref)), (prefix, n, k)
        if ref:
            for bound in past:
                past[bound] += min(ref) > bound
            derived += any(v in vs for v in ref for f, vs in cons if f in (AMO3, AMO4))
    assert past[64] >= 40 and past[128] >= 15 and derived >= 40


@pytest.mark.parametrize("top", [64, 128])
def test_leaf_greedy_window_edges(top):
    # Variables at the window's bound and just past it.  NOR3s rule out
    # 1..top-4, so the first pick is top-3, whose at-most-one partner
    # is the bound itself: the NOR2 its specialisation leaves must be
    # listed there, or top would be the second pick instead of top+2.
    # Then every id up to the bound fails and top+1 is the last one.
    from sparsekis import csp
    from sparsekis.hypergraph import _mask

    rng = random.Random(top)
    starts = {*range(1, top - 5, 3), top - 6}
    cons = [(NOR3, (v, v + 1, v + 2)) for v in sorted(starts)]
    cons.append((NOR3, (top - 2, top - 1, top + 1)))
    n = 8 * len(cons)
    cons.append((AMO3, (top - 3, top, n)))
    tail = range(top + 10, n + 1)
    seen = set()
    while len(seen) < n // 2:
        seen.add(tuple(rng.sample(tail, 3)))
    phi = CspInstance(n, tuple(cons + [(AMO3, vs) for vs in sorted(seen)]))
    assert sparse_csp_greedy(phi, 2) == {top - 3, top + 2}
    assert csp._greedy(csp._root(phi, 2)) == _mask([top - 3, top + 2])

    cons = [(NOR3, (v, v + 1, v + 2)) for v in sorted({*range(1, top - 1, 3), top - 2})]
    phi = CspInstance(top + 1, tuple(cons))
    assert sparse_csp_greedy(phi, 1) == {top + 1}
    assert csp._greedy(csp._root(phi, 1)) == _mask([top + 1])
