"""Binary CSP core: weights, classification, pipeline stages, routing."""

import itertools
import random

import pytest

from sparsekis import (
    EQ2,
    IMPL,
    NAND2,
    NOR2,
    NOT1,
    OR2,
    ConstraintFunction,
    CspInstance,
    CspParseError,
    Regime,
    branch_and_bound,
    brute_solve_csp,
    classify_binary_family,
    eq_components_subset_sum,
    format_csp,
    impl_prune,
    parse_csp,
    permute_arguments,
    preprocess_easy,
    s_min,
    solve_csp,
    specialize,
    symmetrize,
    u_min,
)
from sparsekis.csp import (
    BadConstraintLine,
    BadFunctionDecl,
    MalformedCspHeader,
    _checked,
    _fix,
    _Leaf,
    build_impl_structure,
    forced_false_positions,
)
from sparsekis.hypergraph import _mask
from sparsekis.errors import ResourceLimit, VerificationError

import branching
from closure import closure_sets
from conftest import random_csp

MUST1 = ConstraintFunction("must1", 1, (0, 1))
NAND3 = ConstraintFunction("nand3", 3, (1,) * 7 + (0,))


def weight_k_solutions(phi: CspInstance, k: int) -> set[frozenset[int]]:
    return {
        frozenset(c)
        for c in itertools.combinations(range(1, phi.n + 1), k)
        if phi.satisfied_by(c)
    }


def mapped_solutions(inst: CspInstance, k: int) -> set[frozenset[int]]:
    return {
        frozenset(inst.label_of(v) for v in s)
        for s in weight_k_solutions(inst, k)
    }


def test_weight_examples():
    assert (u_min(NAND2), s_min(NAND2)) == (2, 0)
    assert (u_min(IMPL), s_min(IMPL)) == (1, 0)
    assert (u_min(OR2), s_min(OR2)) == (0, 1)


def test_weights_match_definition():
    rng = random.Random(41)
    for _ in range(40):
        arity = rng.randint(1, 4)
        f = ConstraintFunction(
            "t", arity, tuple(rng.randint(0, 1) for _ in range(2**arity))
        )
        sat = [j.bit_count() for j, b in enumerate(f.table) if b]
        unsat = [j.bit_count() for j, b in enumerate(f.table) if not b]
        assert s_min(f) == (min(sat) if sat else arity + 1)
        assert u_min(f) == (min(unsat) if unsat else arity + 1)


def test_symmetrize_impl_is_eq():
    assert symmetrize(IMPL).table == EQ2.table


def test_symmetrize_fixed_point_and_permutation_invariance():
    rng = random.Random(42)
    assert symmetrize(NAND2) is NAND2  # already symmetric
    for _ in range(20):
        arity = rng.randint(1, 3)
        f = ConstraintFunction(
            "t", arity, tuple(rng.randint(0, 1) for _ in range(2**arity))
        )
        g = symmetrize(f)
        for perm in itertools.permutations(range(arity)):
            assert permute_arguments(g, perm).table == g.table
            assert symmetrize(permute_arguments(f, perm)).table == g.table
        # Symmetrizing only removes satisfying rows.
        assert all(a >= b for a, b in zip(f.table, g.table))


CLASSIFY_FIXTURE = [
    ((NAND2,), "KIS", None),
    ((IMPL,), "Subexponential", None),
    ((EQ2,), "Linear", None),
    ((NAND2, EQ2), "Clique", 0),
    ((NAND2, IMPL), "Clique", 0),
    ((IMPL, EQ2), "Subexponential", None),
    ((OR2,), "Linear", None),
    ((NAND2, OR2), "Clique", 1),
    ((NOR2,), "Linear", None),
    ((NAND2, NOR2), "KIS", None),
    ((EQ2, OR2), "Linear", None),
    ((NAND2, IMPL, EQ2), "Clique", 0),
]


def test_classification_fixture():
    for fam, kind, offset in CLASSIFY_FIXTURE:
        got = classify_binary_family(fam)
        assert (got.kind, got.offset) == (kind, offset), fam


def test_classification_rejects_high_arity():
    tern = ConstraintFunction("t3", 3, (1,) * 7 + (0,))
    with pytest.raises(ValueError):
        classify_binary_family([tern])


def test_regime_validation():
    assert str(Regime("Clique", 2)) == "Clique(2)"
    assert str(Regime("KIS")) == "KIS"
    with pytest.raises(ValueError):
        Regime("Clique")
    with pytest.raises(ValueError):
        Regime("Linear", 1)
    with pytest.raises(ValueError):
        Regime("Quadratic")


def test_parse_format_round_trip():
    rng = random.Random(43)
    for _ in range(20):
        phi = random_csp(
            rng, rng.randint(3, 10), (NAND2, IMPL, EQ2, OR2, NOT1), rng.randint(0, 8)
        )
        back = parse_csp(format_csp(phi, comments=("query = demo",)))
        assert back.n == phi.n and back.m == phi.m
        for (f, vs), (g, ws) in zip(phi.constraints, back.constraints):
            assert f.table == g.table and vs == ws


def test_parse_errors():
    with pytest.raises(MalformedCspHeader):
        parse_csp("c nand 1 2\n")
    with pytest.raises(MalformedCspHeader):
        parse_csp("")
    with pytest.raises(MalformedCspHeader):
        parse_csp("p csp 2 1\np csp 2 1\n")
    with pytest.raises(MalformedCspHeader):
        parse_csp("p csp 2 2\nf nand 2 1110\nc nand 1 2\n")
    with pytest.raises(BadFunctionDecl):
        parse_csp("p csp 2 0\nf nand 2 111\n")
    with pytest.raises(BadFunctionDecl):
        parse_csp("p csp 2 0\nf a 1 10\nf a 1 10\n")
    with pytest.raises(BadConstraintLine):
        parse_csp("p csp 2 1\nc mystery 1 2\n")
    with pytest.raises(BadConstraintLine):
        parse_csp("p csp 2 1\nf nand 2 1110\nc nand 1 1\n")
    with pytest.raises(BadConstraintLine):
        parse_csp("p csp 2 1\nf nand 2 1110\nc nand 1 3\n")
    err = None
    try:
        parse_csp("p csp 2 1\nf nand 2 1110\nc nand 1\n")
    except CspParseError as exc:
        err = exc
    assert err is not None and err.line_no == 3


def test_instance_validation():
    with pytest.raises(ValueError):
        CspInstance(2, ((NAND2, (1, 1)),))
    with pytest.raises(ValueError):
        CspInstance(2, ((NAND2, (1, 3)),))
    always = ConstraintFunction("always", 1, (1, 1))
    with pytest.raises(ValueError):
        CspInstance(2, ((always, (1,)),))


def test_preprocess_nor_pins_both_false():
    phi = CspInstance(3, ((NOR2, (1, 2)),))
    out = preprocess_easy(phi, 1)
    assert out.n == 1 and out.constraints == ()
    assert out.label_of(1) == 3


def test_preprocess_contradiction_leaves_unsat_remnant():
    phi = CspInstance(2, ((NOR2, (1, 2)), (MUST1, (1,))))
    out = preprocess_easy(phi, 1)
    assert len(out.constraints) == 1
    f, _ = out.constraints[0]
    assert f.is_constant_false or f.table == (0, 0)
    for k in range(out.n + 1):
        assert not weight_k_solutions(out, k)


def test_preprocess_preserves_solutions():
    rng = random.Random(44)
    for _ in range(30):
        n = rng.randint(3, 8)
        phi = random_csp(
            rng, n, (NAND2, NOR2, NOT1, IMPL, OR2), rng.randint(1, 6)
        )
        out = preprocess_easy(phi, 2)
        for k in range(n + 1):
            assert mapped_solutions(out, k) == weight_k_solutions(phi, k), (
                format_csp(phi), k
            )


def test_branch_and_bound_leaves_are_zero_valid():
    rng = random.Random(45)
    for _ in range(25):
        n = rng.randint(3, 8)
        phi = random_csp(rng, n, (NAND2, OR2, EQ2, IMPL, NOR2), rng.randint(1, 6))
        k = rng.randint(0, 3)
        leaves = branch_and_bound(phi, k)
        got: set[frozenset[int]] = set()
        for leaf in leaves:
            for f, _ in leaf.instance.constraints:
                assert f.table[0] == 1
            assert len(leaf.forced_true) + leaf.k == k
            for s in weight_k_solutions(leaf.instance, leaf.k):
                got.add(
                    frozenset(leaf.instance.label_of(v) for v in s)
                    | leaf.forced_true
                )
        assert got == weight_k_solutions(phi, k)


def random_function(rng: random.Random, arity: int, name: str) -> ConstraintFunction:
    """A random table of the given arity that is not constant-true."""
    while True:
        table = tuple(int(rng.random() < 0.7) for _ in range(1 << arity))
        if not all(table):
            return ConstraintFunction(name, arity, table)


def random_family_instance(rng: random.Random, arities: range) -> CspInstance:
    """A random instance over two or three random functions, plus pinning
    and forcing ones half of the time, so propagation meets
    contradictions; labelled half of the time, so leaves carry composed
    labels."""
    n = rng.randint(max(arities) + 1, 9)
    fam = [random_function(rng, rng.choice(arities), f"r{i}") for i in range(rng.randint(2, 3))]
    if rng.random() < 0.5:
        fam += [NOR2, MUST1]
    phi = random_csp(rng, n, fam, rng.randint(1, 6))
    if rng.random() < 0.5:
        phi = CspInstance(phi.n, phi.constraints, labels=tuple(rng.sample(range(10, 40), n)))
    return phi


@pytest.mark.parametrize("arities", [range(1, 3), range(3, 7)], ids=["binary", "arity3to6"])
def test_branching_core_matches_reference(arities):
    # The solver branches and propagates in the caller's ids; the public
    # wrappers must hand back exactly what renumbering on every fixing
    # gives: the same leaves, residual budgets, forced sets and instances.
    rng = random.Random(70 + arities.start)
    leaves_seen = unsat_seen = 0
    for _ in range(150):
        phi = random_family_instance(rng, arities)
        k = rng.randint(0, 4)
        got = branch_and_bound(phi, k)
        assert got == branching.branch_and_bound(phi, k), (format_csp(phi), k)
        leaves_seen += len(got)
        want: set[frozenset[int]] = set()
        for s in weight_k_solutions(phi, k):
            want.add(frozenset(phi.label_of(v) for v in s))
        assert {
            frozenset(leaf.instance.label_of(v) for v in s) | leaf.forced_true
            for leaf in got
            for s in weight_k_solutions(leaf.instance, leaf.k)
        } == want
        ref = branching.preprocess_easy(phi)
        out = preprocess_easy(phi, k)
        if ref is None:
            unsat_seen += 1
            assert any(f.is_constant_false for f, _ in out.constraints)
            assert not any(weight_k_solutions(out, j) for j in range(out.n + 1))
        else:
            assert out == ref
        fixed = {v: rng.randint(0, 1) for v in rng.sample(range(1, phi.n + 1), 2)}
        ref = branching.set_variables(phi, fixed)
        cons = _fix(phi.constraints, fixed)
        # The reference also answers None for an untouched constraint
        # that is constant-false; _fix leaves such a constraint in place.
        if cons is None or any(f.is_constant_false for f, _ in cons):
            assert ref is None
        else:
            alive = (1 << phi.n) - 1 & ~_mask(fixed)
            assert _checked(phi, _Leaf(phi.n, cons, alive)) == ref
    assert leaves_seen and unsat_seen


def test_branching_builds_no_instance_per_node(monkeypatch):
    # k + 1 disjoint OR2 pairs need k + 1 true variables, so the answer
    # is NO only after branch-and-bound has walked its whole tree.
    from sparsekis import csp

    rng = random.Random(71)
    n, k = 20, 8
    vs = rng.sample(range(1, n + 1), 2 * (k + 1))
    cons = [(OR2, (vs[2 * i], vs[2 * i + 1])) for i in range(k + 1)]
    while len(cons) < 20:
        cons.append((NAND2, tuple(rng.sample(range(1, n + 1), 2))))
    phi = CspInstance(n, tuple(cons))
    built = []
    real_init = CspInstance.__post_init__

    def counted_init(self):
        built.append(self.n)
        real_init(self)

    specialized = []
    real_specialize = csp.specialize

    def counted_specialize(f, position, value):
        specialized.append(position)
        return real_specialize(f, position, value)

    monkeypatch.setattr(CspInstance, "__post_init__", counted_init)
    monkeypatch.setattr(csp, "specialize", counted_specialize)
    res = solve_csp(phi, k)
    monkeypatch.undo()
    assert not res and res.assignment is None
    assert brute_solve_csp(phi, k) is None
    assert len(specialized) >= 200  # every branch node specializes
    assert len(built) <= 2


def test_exhaustive_fallback_matches_oracle(monkeypatch):
    # With the greedy abstaining everywhere, every higher-arity answer
    # comes from the exhaustive leaf scan; on a 0-valid instance (one
    # leaf, nothing fixed) it must return the oracle's lexicographically
    # first assignment.
    from sparsekis import csp

    monkeypatch.setattr(csp, "_greedy", lambda leaf: None)
    rng = random.Random(73)
    answers = set()
    for _ in range(120):
        phi = random_family_instance(rng, range(3, 7))
        if phi.max_arity < 3:
            continue
        k = rng.randint(1, 4)
        res = solve_csp(phi, k)
        want = brute_solve_csp(phi, k)
        assert res.satisfiable == (want is not None), (format_csp(phi), k)
        if k <= phi.n:
            assert res.route == "exhaustive fallback"
        if res.satisfiable:
            assert len(res.assignment) == k and phi.satisfied_by(res.assignment)
            if all(f.table[0] for f, _ in phi.constraints):
                assert res.assignment == want
        answers.add(res.satisfiable)
    assert answers == {True, False}
    monkeypatch.setattr(csp, "FALLBACK_CAP", 10)
    with pytest.raises(ResourceLimit, match="exhaustive subset scan"):
        solve_csp(CspInstance(8, ((NAND3, (1, 2, 3)),)), 3)


def test_branch_and_bound_prunes_to_unsat():
    phi = CspInstance(6, tuple(
        (OR2, (2 * i + 1, 2 * i + 2)) for i in range(3)
    ))
    assert branch_and_bound(phi, 2) == []


def test_eq_subset_sum_examples():
    comp332 = CspInstance(8, (
        (EQ2, (1, 2)), (EQ2, (2, 3)),
        (EQ2, (4, 5)), (EQ2, (5, 6)),
        (EQ2, (7, 8)),
    ))
    assert eq_components_subset_sum(comp332, 5)
    assert not eq_components_subset_sum(comp332, 4)
    comp33 = CspInstance(6, (
        (EQ2, (1, 2)), (EQ2, (2, 3)),
        (EQ2, (4, 5)), (EQ2, (5, 6)),
    ))
    assert not eq_components_subset_sum(comp33, 5)
    assert eq_components_subset_sum(comp33, 0)


def test_eq_subset_sum_rejects_other_functions():
    with pytest.raises(ValueError):
        eq_components_subset_sum(CspInstance(2, ((NAND2, (1, 2)),)), 1)


def test_eq_subset_sum_matches_brute():
    rng = random.Random(46)
    for _ in range(25):
        n = rng.randint(2, 9)
        phi = random_csp(rng, n, (EQ2,), rng.randint(0, 6))
        for k in range(n + 1):
            assert eq_components_subset_sum(phi, k) == bool(
                weight_k_solutions(phi, k)
            )


def test_table_facts_are_worked_out_once():
    # The whole function is the key: the same call hands back the same
    # object, and a twin table under another name keeps its own names.
    assert specialize(NAND2, 1, 1) is specialize(NAND2, 1, 1)
    assert forced_false_positions(NOR2) is forced_false_positions(NOR2)
    twin = ConstraintFunction("twin", 2, NAND2.table)
    a = specialize(NAND2, 2, 1)
    b = specialize(twin, 2, 1)
    assert a.table == b.table == (1, 0)
    assert (a.name, b.name) == ("nand2|2=1", "twin|2=1")
    c = specialize(b, 1, 0)
    assert c.name == "twin|2=1|1=0" and c.is_constant_true
    with pytest.raises(ValueError):
        specialize(NAND2, 3, 0)


def test_closure_masks_match_reference():
    rng = random.Random(49)
    cyclic = 0
    for _ in range(300):
        n = rng.randint(1, 14)
        phi = random_csp(rng, n, (IMPL, IMPL, EQ2, NAND2), rng.randint(0, 2 * n))
        desc, anc = build_impl_structure(phi)
        want_desc, want_anc = closure_sets(phi)
        assert len(desc) == len(anc) == n
        for v in range(1, n + 1):
            assert desc[v - 1] == sum(1 << (u - 1) for u in want_desc[v]), (phi, v)
            assert anc[v - 1] == sum(1 << (u - 1) for u in want_anc[v]), (phi, v)
        cyclic += any(desc[v - 1] & anc[v - 1] != 1 << (v - 1) for v in range(1, n + 1))
    assert 0 < cyclic < 300


def test_impl_prune_chain():
    chain = CspInstance(10, tuple(
        (IMPL, (i, i + 1)) for i in range(1, 10)
    ))
    out = impl_prune(chain, 3)
    assert out.n == 3
    assert {out.label_of(v) for v in range(1, 4)} == {8, 9, 10}


def test_impl_prune_nand_inside_descendants():
    phi = CspInstance(3, (
        (IMPL, (1, 2)), (IMPL, (1, 3)), (NAND2, (2, 3)),
    ))
    out = impl_prune(phi, 3)
    assert out.n == 2
    assert {out.label_of(v) for v in range(1, 3)} == {2, 3}
    assert [f.table for f, _ in out.constraints] == [NAND2.table]


def test_impl_prune_preserves_weight_k():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randint(3, 8)
        phi = random_csp(rng, n, (IMPL, NAND2, EQ2), rng.randint(1, 7))
        k = rng.randint(0, 4)
        out = impl_prune(phi, k)
        assert mapped_solutions(out, k) == weight_k_solutions(phi, k)


def test_solve_empty_and_complete():
    res = solve_csp(CspInstance(5, ()), 2)
    assert res and res.satisfiable and len(res.assignment) == 2
    k5 = CspInstance(5, tuple(
        (NAND2, (u, v)) for u in range(1, 6) for v in range(u + 1, 6)
    ))
    res = solve_csp(k5, 2)
    assert not res and res.assignment is None
    assert res.route == "regime KIS"


def test_solve_routes():
    eqs = CspInstance(8, (
        (EQ2, (1, 2)), (EQ2, (2, 3)), (EQ2, (4, 5)), (EQ2, (5, 6)),
        (EQ2, (7, 8)),
    ))
    res = solve_csp(eqs, 5)
    assert res and res.route == "regime Linear" and len(res.assignment) == 5
    lonely = CspInstance(40, ((NAND2, (1, 2)),))
    res = solve_csp(lonely, 2)
    assert res and res.route == "free variables"
    chain = CspInstance(10, tuple((IMPL, (i, i + 1)) for i in range(1, 10)))
    res = solve_csp(chain, 3)
    assert res and res.route == "regime Subexponential"
    assert set(res.assignment) == {8, 9, 10}


def test_solve_dense_higher_arity_falls_back(monkeypatch):
    # Every triple of six variables is a NAND3, too dense for the greedy
    # to vouch for, so both answers come from the exhaustive fallback.
    from sparsekis import csp

    abstained = []
    real = csp._greedy

    def spied(leaf):
        got = real(leaf)
        abstained.append(got is None)
        return got

    monkeypatch.setattr(csp, "_greedy", spied)
    phi = CspInstance(6, tuple(
        (NAND3, c) for c in itertools.combinations(range(1, 7), 3)
    ))
    yes = solve_csp(phi, 2)
    assert yes and yes.route == "exhaustive fallback"
    assert len(yes.assignment) == 2 and phi.satisfied_by(yes.assignment)
    assert brute_solve_csp(phi, 2) is not None
    no = solve_csp(phi, 3)
    assert not no and no.route == "exhaustive fallback" and no.assignment is None
    assert brute_solve_csp(phi, 3) is None
    assert abstained == [True, True]


def test_free_variables_skip_fixed_variables():
    # Branching sets variable 1 true; the leaf's lowest free variable is
    # then 2, which no constraint holds any more, and never 1 again.
    phi = CspInstance(40, ((OR2, (1, 2)), (NAND2, (3, 4))))
    res = solve_csp(phi, 2)
    assert res.route == "free variables" and res.assignment == (1, 2)


def test_lowest_free_variables_past_the_first_word():
    # Variables 1..70 are all held, so the answer lies in the second
    # 64-bit word of the alive mask; the scan must name it exactly.
    from sparsekis.csp import _ascending
    from sparsekis.hypergraph import _vertices

    phi = CspInstance(200, tuple((NAND2, (2 * i - 1, 2 * i)) for i in range(1, 36)))
    res = solve_csp(phi, 2)
    assert res.route == "free variables" and res.assignment == (71, 72)
    rng = random.Random(5)
    for _ in range(50):
        m = rng.getrandbits(rng.randint(1, 300))
        assert list(_ascending(m)) == _vertices(m)


def test_solve_labelled_instance_answers_in_its_own_ids():
    # Labels map back to some earlier instance; the answer must still be
    # in phi's own variable ids, on every route that relabels leaves.
    chain = CspInstance(
        10, tuple((IMPL, (i, i + 1)) for i in range(1, 10)),
        labels=tuple(range(101, 111)),
    )
    res = solve_csp(chain, 3)
    assert res and res.route == "regime Subexponential"
    assert set(res.assignment) == {8, 9, 10}
    lonely = CspInstance(40, ((NAND2, (1, 2)),), labels=tuple(range(41, 81)))
    res = solve_csp(lonely, 2)
    assert res and res.route == "free variables"
    assert len(res.assignment) == 2 and all(1 <= v <= 40 for v in res.assignment)
    assert lonely.satisfied_by(res.assignment)


def test_solve_witnesses_verified_random():
    rng = random.Random(48)
    fams = [
        (NAND2,), (IMPL,), (EQ2,), (OR2,), (NOR2,),
        (NAND2, IMPL), (NAND2, EQ2), (IMPL, EQ2), (NAND2, OR2),
        (EQ2, OR2), (NAND2, NOR2), (NAND2, IMPL, EQ2),
    ]
    for i in range(120):
        n = rng.randint(3, 11)
        fam = fams[i % len(fams)]
        phi = random_csp(rng, n, fam, rng.randint(0, 8))
        k = rng.randint(0, 5)
        res = solve_csp(phi, k)
        want = brute_solve_csp(phi, k)
        assert res.satisfiable == (want is not None), (format_csp(phi), k)
        if res.satisfiable:
            assert len(res.assignment) == k
            assert phi.satisfied_by(res.assignment)


def test_solve_decision_only():
    phi = CspInstance(4, ((NAND2, (1, 2)),))
    res = solve_csp(phi, 2, want_witness=False)
    assert res.satisfiable and res.assignment is None


def test_solve_negative_k():
    with pytest.raises(ValueError):
        solve_csp(CspInstance(3, ()), -1)


OR3 = ConstraintFunction("or3", 3, (0,) + (1,) * 7)


@pytest.mark.parametrize("labelled", [False, True], ids=["plain", "labelled"])
def test_branched_greedy_builds_no_instance(monkeypatch, labelled):
    # The OR3 makes branching force one of 1, 2, 3, so every leaf has
    # fixed a variable; the greedy still runs on the leaf as it is, and
    # labels play no part in solving.
    rng = random.Random(29)
    n, k = 60, 3
    cons = [(OR3, (1, 2, 3))]
    cons += [(NAND3, tuple(rng.sample(range(1, n + 1), 3))) for _ in range(12)]
    labels = tuple(range(101, 101 + n)) if labelled else None
    phi = CspInstance(n, tuple(cons), labels=labels)
    built = []
    real_init = CspInstance.__post_init__

    def counted_init(self):
        built.append(self.n)
        real_init(self)

    monkeypatch.setattr(CspInstance, "__post_init__", counted_init)
    res = solve_csp(phi, k)
    monkeypatch.undo()
    assert res and res.route == "sparse greedy"
    assert len(res.assignment) == k and phi.satisfied_by(res.assignment)
    assert {1, 2, 3} & set(res.assignment)
    assert built == []


def _route_cases():
    """(instance, k, route) for a YES and, where the route has one, a NO
    on every solve_csp route."""
    c5 = CspInstance(5, tuple((NAND2, (i, i % 5 + 1)) for i in range(1, 6)))
    eqs = CspInstance(8, (
        (EQ2, (1, 2)), (EQ2, (2, 3)), (EQ2, (4, 5)), (EQ2, (5, 6)), (EQ2, (7, 8)),
    ))
    chain = CspInstance(10, tuple((IMPL, (i, i + 1)) for i in range(1, 10)))
    nand_impl = CspInstance(6, ((NAND2, (1, 2)), (IMPL, (3, 4)), (IMPL, (4, 5))))
    nand_or = CspInstance(6, ((OR2, (1, 2)), (NAND2, (2, 3)), (NAND2, (4, 5))))
    dense3 = CspInstance(6, tuple(
        (NAND3, c) for c in itertools.combinations(range(1, 7), 3)
    ))
    sparse3 = CspInstance(30, ((NAND3, (1, 2, 3)), (NAND3, (4, 5, 6))))
    return [
        (CspInstance(3, ((NAND2, (1, 2)),)), 0, "weight zero"),
        (CspInstance(3, ((OR2, (1, 2)),)), 0, "weight zero"),
        (c5, 6, "budget exceeds variable count"),
        (CspInstance(40, ((NAND2, (1, 2)),)), 2, "free variables"),
        (c5, 2, "regime KIS"),
        (c5, 3, "regime KIS"),
        (eqs, 5, "regime Linear"),
        (eqs, 4, "regime Linear"),
        (chain, 3, "regime Subexponential"),
        (chain, 0, "weight zero"),
        (nand_impl, 3, "regime Clique(0)"),
        (nand_impl, 6, "regime Clique(0)"),
        (nand_or, 2, "regime Clique(1)"),
        (nand_or, 5, "regime Clique(1)"),
        (sparse3, 2, "sparse greedy"),
        (dense3, 2, "exhaustive fallback"),
        (dense3, 3, "exhaustive fallback"),
    ]


@pytest.mark.parametrize("state_cap", ["default", "zero"])
@pytest.mark.parametrize("want_witness", [True, False])
def test_every_yes_is_checked_once(monkeypatch, want_witness, state_cap):
    # One constraint check per YES on every route, witness wanted or
    # not, and none per NO; with a zero state cap the Clique(0) leaves
    # go through the nand_impl pipeline too.
    from sparsekis import csp

    if state_cap == "zero":
        monkeypatch.setattr(csp, "NAND_IMPL_STATE_CAP", 0)
    checks = []
    real = csp._satisfied

    def counted(constraints, true_vars):
        checks.append(1)
        return real(constraints, true_vars)

    monkeypatch.setattr(csp, "_satisfied", counted)
    seen = {True: set(), False: set()}
    for phi, k, route in _route_cases():
        checks.clear()
        res = solve_csp(phi, k, want_witness=want_witness)
        assert res.route == route, (phi, k)
        assert len(checks) == (1 if res else 0), (route, bool(res))
        assert res.satisfiable == (brute_solve_csp(phi, k) is not None)
        assert (res.assignment is not None) == (res.satisfiable and want_witness)
        seen[res.satisfiable].add(route)
    routes = {route for _, _, route in _route_cases()}
    assert seen[True] == routes - {"budget exceeds variable count"}
    assert seen[False] == routes - {"free variables", "regime Subexponential", "sparse greedy"}


@pytest.mark.parametrize(
    "pair_mask, triple_mask",
    [(0b11, 0b111), (0b101, 0b1011), (-1, -1)],
    ids=["violates", "outside", "negative"],
)
def test_corrupted_leaf_mask_raises_without_witness(monkeypatch, pair_mask, triple_mask):
    # A leaf answer is checked against phi even when no witness is
    # wanted: a violated constraint, a variable beyond n and a negative
    # mask are each refused, on a binary route and on the greedy.
    from sparsekis import csp

    monkeypatch.setattr(csp, "_solve_leaf_binary", lambda leaf, regime: pair_mask)
    monkeypatch.setattr(csp, "_greedy", lambda leaf: triple_mask)
    for phi, k, mask in (
        (CspInstance(2, ((NAND2, (1, 2)),)), 2, pair_mask),
        (CspInstance(3, ((NAND3, (1, 2, 3)),)), 3, triple_mask),
    ):
        assert mask < 0 or mask.bit_count() == k
        for want_witness in (True, False):
            with pytest.raises(VerificationError):
                solve_csp(phi, k, want_witness=want_witness)


def test_constraint_with_no_true_variable_is_still_checked():
    # OR2 on two false variables fails on its all-false row, though the
    # check skips the variable walk for a constraint the true set misses.
    from sparsekis.csp import _verify

    phi = CspInstance(4, ((NAND2, (3, 4)), (OR2, (1, 2))))
    for want_witness in (True, False):
        with pytest.raises(VerificationError):
            _verify(phi, 0b1000, 1, want_witness)
    assert _verify(phi, 0b1001, 2, True) == (1, 4)
    assert not phi.satisfied_by([3, 4])
    assert phi.satisfied_by([2])


@pytest.mark.parametrize("cap", ["default", "zero"])
def test_nand_impl_leaf_search_matches_oracle(monkeypatch, cap):
    # NAND + IMPL leaves go to the closed-set search first; with a zero
    # state cap every one of them must reach the nand_impl pipeline
    # instead, in exactly one run per solve, and the answers stay the
    # oracle's.
    from sparsekis import csp, nand_impl

    if cap == "zero":
        monkeypatch.setattr(csp, "NAND_IMPL_STATE_CAP", 0)
    pipeline = []
    real_pipeline = nand_impl._solve_leaf

    def counted(leaf):
        pipeline.append(leaf.k)
        return real_pipeline(leaf)

    monkeypatch.setattr(nand_impl, "_solve_leaf", counted)
    searched = []
    real_search = csp._closed_set_search

    def spied(inst, k, state_cap=csp.SEARCH_STATE_CAP):
        searched.append(state_cap)
        return real_search(inst, k, state_cap)

    monkeypatch.setattr(csp, "_closed_set_search", spied)
    rng = random.Random(63)
    for _ in range(40):
        n = rng.randint(3, 10)
        phi = random_csp(rng, n, [NAND2, IMPL, EQ2], rng.randint(2, 12))
        for k in range(0, n + 1):
            runs, capped = len(pipeline), searched.count(csp.NAND_IMPL_STATE_CAP)
            res = solve_csp(phi, k)
            runs = len(pipeline) - runs
            capped = searched.count(csp.NAND_IMPL_STATE_CAP) - capped
            want = brute_solve_csp(phi, k)
            assert res.satisfiable == (want is not None), (format_csp(phi), k)
            if res.satisfiable:
                assert len(res.assignment) == k
                assert phi.satisfied_by(res.assignment)
            assert runs == (capped if cap == "zero" else 0) <= 1
    assert csp.NAND_IMPL_STATE_CAP in searched
    assert bool(pipeline) == (cap == "zero")


def test_nand_impl_pipeline_builds_no_instance(monkeypatch):
    # The shape of the benchmark's Clique-regime instances: 200 NAND and
    # IMPL constraints on 80 variables, all satisfied by a planted
    # 6-set.  One OR2 over two planted variables makes branching force
    # one of them, so the first leaf carries a forced variable and has
    # a solution.  Past the state cap one pipeline run solves that leaf,
    # and nothing after entry builds a checked instance.
    from sparsekis import csp, nand_impl

    rng = random.Random(101)
    n, k = 80, 6
    planted = set(rng.sample(range(1, n + 1), k))
    cons = [(OR2, tuple(sorted(planted)[:2]))]
    while len(cons) < 201:
        c = (rng.choice((NAND2, IMPL)), tuple(rng.sample(range(1, n + 1), 2)))
        if c not in cons and c[0]([int(v in planted) for v in c[1]]):
            cons.append(c)
    phi = CspInstance(n, tuple(cons))
    monkeypatch.setattr(csp, "NAND_IMPL_STATE_CAP", 0)
    pipeline = []
    real_pipeline = nand_impl._solve_leaf

    def counted(leaf):
        pipeline.append(leaf.k)
        return real_pipeline(leaf)

    built = []
    real_init = CspInstance.__post_init__

    def counted_init(self):
        built.append(self.n)
        real_init(self)

    monkeypatch.setattr(nand_impl, "_solve_leaf", counted)
    monkeypatch.setattr(CspInstance, "__post_init__", counted_init)
    res = solve_csp(phi, k)
    monkeypatch.undo()
    assert res.satisfiable and res.route == "regime Clique(0)"
    assert len(res.assignment) == k and phi.satisfied_by(res.assignment)
    assert len(pipeline) == 1
    assert built == []
