"""Binary CSP core: weights, classification, pipeline stages, routing."""

import itertools
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import sparsekis
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
    NEVER1,
    BadConstraintLine,
    BadFunctionDecl,
    MalformedCspHeader,
    _checked,
    _closure,
    _fix,
    _Leaf,
    _read,
    forced_false_positions,
    min_violations,
)
from sparsekis.hypergraph import _mask, _vertices
from sparsekis.errors import ResourceLimit, VerificationError

import binary_leaf
import branching
from closure import closure_sets
from support_form import support_form
from conftest import random_csp

MUST1 = ConstraintFunction("must1", 1, (0, 1))
NAND3 = ConstraintFunction("nand3", 3, (1,) * 7 + (0,))
# 0-valid but not downward closed: two true variables violate it, three
# satisfy it.
NOT_TWO = ConstraintFunction("not_two", 3, tuple(int(j.bit_count() != 2) for j in range(8)))


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


def test_permute_arguments_rejects_a_non_permutation():
    assert permute_arguments(IMPL, (1, 0)).table == (1, 1, 0, 1)
    assert permute_arguments(IMPL, [0, 1]).table == IMPL.table
    for perm in ((0, 0), (0,), (1, 2), (0, 1, 2), (-1, 0)):
        with pytest.raises(ValueError, match="not a permutation"):
            permute_arguments(IMPL, perm)


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


# Each error branch of the parser: input text, exception class, line_no.
CSP_PARSE_ERRORS = {
    "header_form": ("p cnf 2 0\n", MalformedCspHeader, 1),
    "header_fields": ("p csp 2\n", MalformedCspHeader, 1),
    "second_header": ("p csp 2 0\n\np csp 2 0\n", MalformedCspHeader, 3),
    "non_integer_counts": ("p csp 2 x\n", MalformedCspHeader, 1),
    "negative_counts": ("p csp -1 0\n", MalformedCspHeader, 1),
    "function_fields": ("p csp 2 0\nf nand 2\n", BadFunctionDecl, 2),
    "function_twice": ("p csp 2 0\nf a 1 10\nf a 1 10\n", BadFunctionDecl, 3),
    "non_integer_arity": ("p csp 2 0\nf nand two 1110\n", BadFunctionDecl, 2),
    "arity_zero": ("p csp 2 0\nf z 0 1\n", BadFunctionDecl, 2),
    "arity_seven": ("p csp 2 0\nf big 7 0\n", BadFunctionDecl, 2),
    "bits": ("p csp 2 0\nf nand 2 111\n", BadFunctionDecl, 2),
    "constraint_before_header": ("c nand 1 2\n", MalformedCspHeader, 1),
    "constraint_without_variable": (
        "p csp 2 1\nf nand 2 1110\nc nand\n", BadConstraintLine, 3),
    "unknown_function": ("p csp 2 1\nc mystery 1 2\n", BadConstraintLine, 2),
    "constant_true": ("p csp 2 1\nf t 1 11\nc t 1\n", BadConstraintLine, 3),
    "non_integer_variable": (
        "p csp 2 1\nf nand 2 1110\nc nand 1 x\n", BadConstraintLine, 3),
    "variable_count": ("p csp 2 1\nf nand 2 1110\nc nand 1\n", BadConstraintLine, 3),
    "repeated_variable": ("p csp 2 1\nf nand 2 1110\nc nand 1 1\n", BadConstraintLine, 3),
    "variable_range": ("p csp 2 1\nf nand 2 1110\nc nand 1 3\n", BadConstraintLine, 3),
    "unrecognized": ("p csp 2 0\nq 1 2\n", BadConstraintLine, 2),
    "missing_header": ("# nothing else\n", MalformedCspHeader, 0),
    "constraint_count": (
        "# counts\np csp 2 2\nf nand 2 1110\nc nand 1 2\n", MalformedCspHeader, 2),
}


@pytest.mark.parametrize("case", sorted(CSP_PARSE_ERRORS))
def test_parse_error_class_and_line(case):
    text, cls, line_no = CSP_PARSE_ERRORS[case]
    with pytest.raises(CspParseError) as exc:
        parse_csp(text)
    assert type(exc.value) is cls
    assert exc.value.line_no == line_no


def test_instance_validation():
    with pytest.raises(ValueError):
        CspInstance(2, ((NAND2, (1, 1)),))
    with pytest.raises(ValueError):
        CspInstance(2, ((NAND2, (1, 3)),))
    always = ConstraintFunction("always", 1, (1, 1))
    with pytest.raises(ValueError):
        CspInstance(2, ((always, (1,)),))
    never = ConstraintFunction("z", 0, (0,))
    for make, message in (
        (lambda: CspInstance(-1, ()), "negative variable count -1"),
        (lambda: CspInstance(1, ((never, ()),)), "constraint on 'z' has arity 0 < 1"),
        (lambda: CspInstance(3, ((NAND2, (1,)),)), "'nand2' expects 2 variables, got 1"),
        (lambda: CspInstance(2, (), labels=(1,)), "labels length must equal n"),
    ):
        with pytest.raises(ValueError) as err:
            make()
        assert type(err.value) is ValueError and str(err.value) == message


@pytest.mark.parametrize("arity, table, message", [
    (7, (0,) * 128, "arity 7 out of range 0..6"),
    (2, (1, 0, 1), "table length 3 != 2^2 for 'f'"),
    (1, (0, 2), "non-bit entry in table of 'f'"),
])
def test_constraint_function_validation(arity, table, message):
    with pytest.raises(ValueError) as err:
        ConstraintFunction("f", arity, table)
    assert type(err.value) is ValueError and str(err.value) == message


def test_format_renames_distinct_tables_that_share_a_name():
    nand = ConstraintFunction("f", 2, NAND2.table)
    impl = ConstraintFunction("f", 2, IMPL.table)
    phi = CspInstance(4, ((nand, (1, 2)), (impl, (2, 3)), (nand, (3, 4))))
    text = format_csp(phi)
    assert "f f 2 1110" in text.splitlines() and "f f_ 2 1011" in text.splitlines()
    back = parse_csp(text)
    assert [(f.name, f.table, vs) for f, vs in back.constraints] == [
        ("f", NAND2.table, (1, 2)), ("f_", IMPL.table, (2, 3)), ("f", NAND2.table, (3, 4)),
    ]
    for k in range(phi.n + 1):
        assert solve_csp(back, k) == solve_csp(phi, k), k


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
    # k + 1 disjoint OR2 pairs need k + 1 true variables, so the packing
    # bound settles the NO at the root.  Disjoint OR2 triangles need two
    # true variables each, while a packing holds one OR2 per triangle:
    # with k = 2t - 1 that fits the budget, and the NO comes only after
    # branch-and-bound has walked its tree.
    from sparsekis import csp

    rng = random.Random(71)
    n, k = 20, 8
    vs = rng.sample(range(1, n + 1), 2 * (k + 1))
    cons = [(OR2, (vs[2 * i], vs[2 * i + 1])) for i in range(k + 1)]
    while len(cons) < 20:
        cons.append((NAND2, tuple(rng.sample(range(1, n + 1), 2))))
    pairs = CspInstance(n, tuple(cons))
    t = 5
    vs = rng.sample(range(1, n + 1), 3 * t)
    cons = [
        (OR2, pair)
        for i in range(t)
        for pair in itertools.combinations(vs[3 * i:3 * i + 3], 2)
    ]
    while len(cons) < 20:
        cons.append((NAND2, tuple(rng.sample(range(1, n + 1), 2))))
    triangles = CspInstance(n, tuple(cons))
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

    for phi, k in ((pairs, 8), (triangles, 2 * t - 1)):
        built.clear()
        specialized.clear()
        monkeypatch.setattr(CspInstance, "__post_init__", counted_init)
        monkeypatch.setattr(csp, "specialize", counted_specialize)
        res = solve_csp(phi, k)
        monkeypatch.undo()
        assert not res and res.assignment is None
        assert brute_solve_csp(phi, k) is None
        if phi is pairs:
            assert specialized == [] and csp._branch(phi, k) == []
        else:
            assert len(specialized) >= 200  # every branch node specializes
        assert len(built) <= 2


def test_exhaustive_fallback_matches_oracle(monkeypatch):
    # With the greedy abstaining everywhere, every higher-arity answer
    # comes from the leaf solver ("regime KIS") on leaves whose tables
    # are all read (downward closed, or binary) and from the exhaustive
    # leaf scan on the others; the scan runs only on leaves that hold a
    # table that is not downward closed.  On a 0-valid instance (one
    # leaf, nothing fixed) either must return the oracle's
    # lexicographically first assignment.
    from sparsekis import csp

    monkeypatch.setattr(csp, "_greedy", lambda leaf: None)
    scans = []
    real_scan = csp._exhaustive

    def spied(leaf):
        assert any(min_violations(f) is None for f, _ in leaf.constraints)
        got = real_scan(leaf)
        scans.append(got)
        return got

    monkeypatch.setattr(csp, "_exhaustive", spied)
    rng = random.Random(73)
    answers = set()
    for _ in range(120):
        phi = random_family_instance(rng, range(3, 7))
        if phi.max_arity < 3:
            continue
        k = rng.randint(1, 4)
        scans.clear()
        res = solve_csp(phi, k)
        want = brute_solve_csp(phi, k)
        assert res.satisfiable == (want is not None), (format_csp(phi), k)
        if k <= phi.n:
            # A YES names the route of the leaf that answered it; a NO
            # names the scan when any leaf needed it.
            scanned = bool(scans) and (scans[-1] is not None or not res.satisfiable)
            assert res.route == ("exhaustive fallback" if scanned else "regime KIS")
        if res.satisfiable:
            assert len(res.assignment) == k and phi.satisfied_by(res.assignment)
            if all(f.table[0] for f, _ in phi.constraints):
                assert res.assignment == want
        answers.add((res.satisfiable, res.route))
    assert answers >= {
        (yes, route) for yes in (True, False) for route in ("exhaustive fallback", "regime KIS")
    }
    monkeypatch.setattr(csp, "FALLBACK_CAP", 10)
    with pytest.raises(ResourceLimit, match="exhaustive subset scan"):
        solve_csp(CspInstance(8, ((NOT_TWO, (1, 2, 3)),)), 3)


def test_branch_and_bound_prunes_to_unsat():
    phi = CspInstance(6, tuple(
        (OR2, (2 * i + 1, 2 * i + 2)) for i in range(3)
    ))
    assert branch_and_bound(phi, 2) == []


def test_branch_and_bound_leaves_are_capped(monkeypatch, tmp_path, capsys):
    # 12 disjoint OR2 pairs at k = 12 branch into 2^12 = 4096 leaves:
    # under a cap of 1000 branching stops with ResourceLimit, and
    # solve-csp exits 3; at the default cap they answer as before.
    from sparsekis import csp
    from sparsekis.cli import main

    p = 12
    phi = CspInstance(2 * p, tuple((OR2, (2 * i + 1, 2 * i + 2)) for i in range(p)))
    path = tmp_path / "pairs.csp"
    path.write_text(f"p csp {2 * p} {p}\nf or2 2 0111\n" + "".join(
        f"c or2 {2 * i + 1} {2 * i + 2}\n" for i in range(p)
    ))
    assert len(branch_and_bound(phi, p)) == 2 ** p
    res = solve_csp(phi, p)
    assert res and phi.satisfied_by(res.assignment)
    assert main(["solve-csp", str(path), "-k", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"
    monkeypatch.setattr(csp, "SEARCH_STATE_CAP", 1000)
    with pytest.raises(ResourceLimit, match="branch-and-bound leaves"):
        branch_and_bound(phi, p)
    with pytest.raises(ResourceLimit, match="branch-and-bound leaves"):
        solve_csp(phi, p)
    assert main(["solve-csp", str(path), "-k", str(p)]) == 3
    assert "branch-and-bound leaves" in capsys.readouterr().err


def linear_leaf_decides(phi, k):
    """The Linear leaf of `solve_csp` on the whole of an EQ-only instance."""
    from sparsekis import csp

    return csp._solve_leaf(csp._root(phi, k), Regime("Linear")) is not None


def test_eq_subset_sum_examples():
    comp332 = CspInstance(8, (
        (EQ2, (1, 2)), (EQ2, (2, 3)),
        (EQ2, (4, 5)), (EQ2, (5, 6)),
        (EQ2, (7, 8)),
    ))
    assert linear_leaf_decides(comp332, 5)
    assert not linear_leaf_decides(comp332, 4)
    comp33 = CspInstance(6, (
        (EQ2, (1, 2)), (EQ2, (2, 3)),
        (EQ2, (4, 5)), (EQ2, (5, 6)),
    ))
    assert not linear_leaf_decides(comp33, 5)
    assert linear_leaf_decides(comp33, 0)


def test_eq_subset_sum_rejects_a_negative_budget():
    phi = CspInstance(2, ((EQ2, (1, 2)),))
    for k in (-1, -3):
        with pytest.raises(ValueError, match="negative weight budget"):
            solve_csp(phi, k)


def test_eq_subset_sum_matches_brute():
    rng = random.Random(46)
    for _ in range(25):
        n = rng.randint(2, 9)
        phi = random_csp(rng, n, (EQ2,), rng.randint(0, 6))
        for k in range(n + 1):
            assert linear_leaf_decides(phi, k) == bool(
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
        every = (1 << n) - 1
        reading = _read(_Leaf(n, phi.constraints, every))
        desc, anc = _closure(reading.succ, every), _closure(reading.pred, every)
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


def test_impl_prune_leaves_the_unsatisfiable_remnant():
    # Both OR2 variables drag three variables in, so at k = 1 pruning
    # fixes them false and the OR2 can no longer hold.
    phi = CspInstance(4, (
        (IMPL, (1, 3)), (IMPL, (1, 4)), (IMPL, (2, 3)), (IMPL, (2, 4)), (OR2, (1, 2)),
    ))
    out = impl_prune(phi, 1)
    assert out.n == 4 and out.constraints == ((NEVER1, (1,)),)
    assert brute_solve_csp(phi, 1) is None


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
    # to vouch for.  NAND3 is downward closed, so both answers come from
    # k-IS on the triples, and the exhaustive scan never runs.
    from sparsekis import csp

    abstained = []
    real = csp._greedy

    def spied(leaf):
        got = real(leaf)
        abstained.append(got is None)
        return got

    def no_scan(leaf):
        raise AssertionError("exhaustive scan on a downward-closed leaf")

    monkeypatch.setattr(csp, "_greedy", spied)
    monkeypatch.setattr(csp, "_exhaustive", no_scan)
    phi = CspInstance(6, tuple(
        (NAND3, c) for c in itertools.combinations(range(1, 7), 3)
    ))
    yes = solve_csp(phi, 2)
    assert yes and yes.route == "regime KIS"
    assert len(yes.assignment) == 2 and phi.satisfied_by(yes.assignment)
    assert brute_solve_csp(phi, 2) is not None
    no = solve_csp(phi, 3)
    assert not no and no.route == "regime KIS" and no.assignment is None
    assert brute_solve_csp(phi, 3) is None
    assert abstained == [True, True]


def at_most(t: int, r: int) -> ConstraintFunction:
    """At most t of r variables true; NAND_r is at_most(r - 1, r)."""
    return ConstraintFunction(f"atmost{t}of{r}", r, tuple(int(j.bit_count() <= t) for j in range(1 << r)))


def padded(f: ConstraintFunction) -> ConstraintFunction:
    """f with one more argument, on which it does not depend."""
    return ConstraintFunction(f"pad_{f.name}", f.arity + 1, f.table * 2)


DOWNWARD = (
    [at_most(r - 1, r) for r in range(3, 7)]
    + [at_most(t, r) for t, r in ((0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6))]
    + [padded(NAND2), padded(at_most(1, 3)), padded(at_most(2, 4))]
    + [specialize(at_most(2, 5), 2, 0), specialize(at_most(3, 5), 4, 1), specialize(at_most(4, 6), 1, 1)]
)


def test_min_violations_by_definition():
    # None exactly when a row above a violating row satisfies; otherwise
    # the violating rows with no violating row strictly below them.
    assert min_violations(NAND3) == (7,)
    assert min_violations(at_most(1, 3)) == (3, 5, 6)
    assert min_violations(NOR2) == (1, 2)
    assert min_violations(IMPL) is None and min_violations(OR2) is None
    assert min_violations(NOT_TWO) is None
    assert min_violations(padded(NAND2)) == (3,)
    rng = random.Random(81)
    closed = 0
    for _ in range(400):
        arity = rng.randint(1, 4)
        rows = range(1 << arity)
        if rng.random() < 0.5:
            # A random downward-closed table: rows under none of a few
            # random ones violate nothing.
            tops = rng.sample(rows, rng.randint(1, min(3, len(rows))))
            table = tuple(int(not any(j & t == t for t in tops)) for j in rows)
        else:
            table = tuple(rng.randint(0, 1) for _ in rows)
        f = ConstraintFunction("r", arity, table)
        bad = [j for j in rows if not table[j]]
        closed_by_def = all(not table[i] for j in bad for i in rows if i & j == j)
        got = min_violations(f)
        if not closed_by_def:
            assert got is None, table
            continue
        closed += 1
        assert got == tuple(j for j in bad if not any(i != j and i & j == i for i in bad)), table
    assert closed >= 150


def kis_forms(phi: CspInstance, k: int) -> list:
    """The k-IS form of each leaf solve_csp reads with the sparse greedy
    abstaining: (NAND rows, alive, large edges) per leaf it reaches with
    no unread table and no implication, in leaf order."""
    from sparsekis import csp

    handed = []
    real = csp._read

    def spied(leaf):
        r = real(leaf)
        if r.unread is None and not any(r.succ):
            handed.append((r.nand, r.alive, r.big))
        return r

    with pytest.MonkeyPatch.context() as m:
        m.setattr(csp, "_read", spied)
        m.setattr(csp, "_greedy", lambda leaf: None)
        solve_csp(phi, k)
    return handed


@pytest.mark.parametrize("mixed", [False, True], ids=["downward", "mixed"])
def test_downward_closed_route_matches_oracle(mixed):
    # NAND_r, at-most-t-of-r and their padded and specialised forms, with
    # a table that is not downward closed thrown in when mixed: a leaf of
    # downward-closed tables is k-IS on their violating supports, and a
    # leaf with any other table still goes to the exhaustive scan.  The
    # search picks in increasing order, so where it settles its set is
    # the scan's lexicographically first one.
    from sparsekis import csp, kis

    rng = random.Random(83 + mixed)
    seen = set()
    for _ in range(250):
        fam = rng.sample(DOWNWARD, rng.randint(1, 3)) + [NOT_TWO] * mixed
        n = rng.randint(4, 10)
        phi = random_csp(rng, n, fam, rng.randint(1, 14))
        if phi.max_arity < 3:
            continue
        k = rng.randint(1, min(n, 5))
        res = solve_csp(phi, k)
        want = brute_solve_csp(phi, k)
        assert res.satisfiable == (want is not None), (format_csp(phi), k)
        closed = all(min_violations(f) is not None for f in phi.functions)
        assert res.route in ("sparse greedy", "regime KIS" if closed else "exhaustive fallback")
        if res.satisfiable and res.route != "sparse greedy":
            assert res.assignment == want
        seen.add((res.satisfiable, res.route))
        leaf = csp._root(phi, k)
        form = next(iter(kis_forms(phi, k)), None)
        assert (form is None) == (not closed)
        if form is not None and kis._search_k_is(*form, k)[0]:
            ok, found = kis._decide(*form, k, True)
            assert (found if ok else None) == csp._exhaustive(leaf)
    route = "exhaustive fallback" if mixed else "regime KIS"
    assert {(True, route), (False, route)} <= seen


@pytest.mark.parametrize(
    "n, triples, want",
    [(5, [(1, 2, 3)], (1, 2, 4)), (4, list(itertools.combinations(range(1, 5), 3)), None)],
    ids=["yes", "no"],
)
def test_kis_resource_limit_falls_back_to_the_scan(monkeypatch, n, triples, want):
    # With the greedy abstaining and no search or clique budget, k-IS
    # meets a resource limit on a downward-closed leaf, and the
    # exhaustive scan answers it instead.
    from sparsekis import cliques, csp, kis

    monkeypatch.setattr(csp, "_greedy", lambda leaf: None)
    monkeypatch.setattr(kis, "SEARCH_NODE_BUDGET", 0)
    monkeypatch.setattr(cliques, "NODE_CAP", 0)
    phi = CspInstance(n, tuple((NAND3, t) for t in triples))
    res = solve_csp(phi, 3)
    assert res.route == "exhaustive fallback"
    assert res.assignment == want == brute_solve_csp(phi, 3)
    assert res.satisfiable == (want is not None)


# Rejects its first variable, and its other two together.
PIN_OR_PAIR = ConstraintFunction("pin_or_pair", 3, tuple(int(not (j & 1 or j & 6 == 6)) for j in range(8)))


def test_support_form_splits_supports_by_size():
    # One-vertex supports leave alive, two-vertex supports are pair rows
    # (a row may keep a bit of a dead variable, which k-IS never reads),
    # and larger ones are edges unless they hold a dead variable or more
    # than k variables.
    assert min_violations(PIN_OR_PAIR) == (1, 6)
    phi = CspInstance(9, (
        (PIN_OR_PAIR, (1, 2, 3)),
        (PIN_OR_PAIR, (4, 1, 5)),  # its pair holds the dead variable 1
        (NAND3, (2, 5, 7)),
        (NAND3, (1, 6, 7)),  # holds the dead variable 1
        (NAND3, (7, 5, 2)),  # the same support again
        (at_most(3, 4), (6, 7, 8, 9)),  # four vertices, more than k = 3
    ))
    [(rows, alive, big)] = kis_forms(phi, 3)
    assert alive == _mask([2, 3, 5, 6, 7, 8, 9])
    assert [r & alive if alive >> i & 1 else 0 for i, r in enumerate(rows)] == [
        0, 0b100, 0b10, 0, 0, 0, 0, 0, 0
    ]
    assert big == [_mask([2, 5, 7])]
    for k in range(phi.n + 1):
        res = solve_csp(phi, k)
        assert res.satisfiable == (brute_solve_csp(phi, k) is not None), k
        if 0 < k <= phi.n:
            assert res.route == "regime KIS"
            if res:
                assert res.assignment == brute_solve_csp(phi, k)


@pytest.mark.parametrize("mixed", [False, True], ids=["downward", "mixed"])
def test_read_matches_the_support_form_reference(mixed):
    # On the leaves of random instances (OR2 makes branching set
    # variables true) solve_csp hands k-IS the reference support form's
    # alive mask and large edges, and its NAND rows inside alive; a leaf
    # with a table that is not downward closed has no form in either.
    from sparsekis import csp

    rng = random.Random(87 + mixed)
    tables = DOWNWARD + [PIN_OR_PAIR]
    compared = forced = 0
    for _ in range(250):
        fam = rng.sample(tables, rng.randint(1, 3)) + [NOT_TWO] * (mixed and rng.random() < 0.5)
        n = rng.randint(4, 10)
        phi = random_csp(rng, n, fam + [OR2] * (rng.random() < 0.5), rng.randint(1, 14))
        if phi.max_arity < 3:
            continue
        k = rng.randint(1, min(n, 5))
        want = [
            (leaf, form) for leaf in csp._branch(phi, k)
            if (form := support_form(leaf)) is not None
        ]
        got = kis_forms(phi, k)
        # A YES stops at its leaf; a NO reaches every leaf.
        assert len(got) <= len(want), (format_csp(phi), k)
        if brute_solve_csp(phi, k) is None:
            assert len(got) == len(want), (format_csp(phi), k)
        for (rows, alive, big), (leaf, (want_rows, want_alive, want_big)) in zip(got, want):
            assert (alive, big) == (want_alive, want_big), (format_csp(phi), k)
            for v in _vertices(alive):
                assert rows[v - 1] & alive == want_rows[v - 1] & alive, (format_csp(phi), k)
            compared += 1
            forced += leaf.forced != 0
    assert compared > 100 and forced > 20


def no_scan(leaf):
    raise AssertionError("exhaustive scan on a leaf with every table read")


def test_implication_leaves_match_oracle(monkeypatch):
    # IMPL or EQ2 mixed with NAND_r, at-most-t-of-r, NOR2, OR2 and
    # NOT_TWO: the leaf solver searches the higher-arity leaves that
    # hold an implication, and the exhaustive scan runs only on leaves
    # with a table that is neither binary nor downward closed, the one
    # kind the reading leaves unread.
    from sparsekis import csp

    scans = []
    real_scan = csp._exhaustive

    def spied(leaf):
        assert any(f.arity > 2 and min_violations(f) is None for f, _ in leaf.constraints)
        scans.append(leaf)
        return real_scan(leaf)

    searches = []
    real_search = csp._closed_set_search

    def searched(*args):
        searches.append(args)
        return real_search(*args)

    monkeypatch.setattr(csp, "_exhaustive", spied)
    monkeypatch.setattr(csp, "_closed_set_search", searched)
    rng = random.Random(91)
    tables = [NAND3, at_most(3, 4), at_most(1, 3), at_most(2, 4), NAND2, NOR2, OR2, NOT_TWO]
    seen = set()
    for _ in range(300):
        fam = [rng.choice((IMPL, EQ2))] + rng.sample(tables, rng.randint(1, 3))
        n = rng.randint(4, 10)
        phi = random_csp(rng, n, fam, rng.randint(2, 14))
        if phi.max_arity < 3:
            continue
        for k in range(1, n + 1):
            res = solve_csp(phi, k)
            want = brute_solve_csp(phi, k)
            assert res.satisfiable == (want is not None), (format_csp(phi), k)
            if res.satisfiable:
                assert len(res.assignment) == k and phi.satisfied_by(res.assignment)
            seen.add((res.satisfiable, res.route))
    assert {(yes, "regime KIS") for yes in (True, False)} <= seen
    assert (True, "exhaustive fallback") in seen
    assert scans and any(args[4] for args in searches)


def impl_nand3_instance(n: int) -> CspInstance:
    """2n/3 IMPL and 2n NAND3 constraints on n variables, drawn from
    random.Random(5); at n = 60, k = 8 is C(60, 8) > 2.5 * 10^9 subsets."""
    rng = random.Random(5)
    cons = [(IMPL, tuple(rng.sample(range(1, n + 1), 2))) for _ in range(2 * n // 3)]
    cons += [(NAND3, tuple(rng.sample(range(1, n + 1), 3))) for _ in range(2 * n)]
    return CspInstance(n, tuple(cons))


@pytest.mark.parametrize("n", [60, 200, 400])
def test_implication_leaf_past_the_scan_cap(monkeypatch, n):
    # Far past the scan's cap, the leaf's implications are searched over
    # closed sets free of NAND3 triples, and the scan never runs.
    from sparsekis import csp

    monkeypatch.setattr(csp, "_exhaustive", no_scan)
    phi = impl_nand3_instance(n)
    assert comb(n, 8) > csp.FALLBACK_CAP
    res = solve_csp(phi, 8)
    assert res and res.route == "regime KIS"
    assert len(res.assignment) == 8 and phi.satisfied_by(res.assignment)


@pytest.mark.parametrize(
    "cons",
    [
        # D(1) = {1, 2, 3} holds the triple on its own.
        ((IMPL, (1, 2)), (IMPL, (2, 3)), (IMPL, (3, 1)), (IMPL, (4, 1)), (IMPL, (5, 1)),
         (NAND3, (1, 2, 3))),
        # Only the union D(1) | D(3) = {1, 2, 3} holds the triple.
        ((IMPL, (1, 2)), (IMPL, (3, 2)),
         (NAND3, (1, 2, 3)), (NAND3, (1, 2, 4)), (NAND3, (2, 3, 4))),
    ],
    ids=["generator", "union"],
)
def test_closed_sets_holding_a_large_edge_are_cut(monkeypatch, cons):
    # Every closed 3-set holds a NAND3 triple, so k = 3 is NO, though
    # the search would settle on a closed 3-set with the triples left
    # out.
    from sparsekis import csp

    searches = []
    real_search = csp._closed_set_search

    def searched(*args):
        searches.append(args)
        return real_search(*args)

    monkeypatch.setattr(csp, "_exhaustive", no_scan)
    monkeypatch.setattr(csp, "_closed_set_search", searched)
    phi = CspInstance(max(v for _, vs in cons for v in vs), cons)
    res = solve_csp(phi, 3)
    assert (res.satisfiable, res.route) == (False, "regime KIS")
    assert brute_solve_csp(phi, 3) is None
    [(desc, rows, alive, k, big, cap)] = searches
    assert big and real_search(desc, rows, alive, k, [], cap) is not None
    for k in range(phi.n + 1):
        assert solve_csp(phi, k).satisfiable == (brute_solve_csp(phi, k) is not None), k


def test_search_state_cap_falls_back_to_the_scan_only_past_binary(monkeypatch):
    # With no search states to spend, a higher-arity leaf with an
    # implication goes to the exhaustive scan, while a Subexponential
    # binary leaf still raises ResourceLimit.
    from sparsekis import csp

    monkeypatch.setattr(csp, "SEARCH_STATE_CAP", 0)
    phi = CspInstance(6, ((IMPL, (1, 2)), (NAND3, (2, 3, 4))))
    res = solve_csp(phi, 3)
    assert res.route == "exhaustive fallback"
    assert res.assignment == brute_solve_csp(phi, 3) == (1, 2, 3)
    chain = CspInstance(3, ((IMPL, (1, 2)), (IMPL, (2, 3))))
    assert classify_binary_family(chain.functions) == Regime("Subexponential")
    with pytest.raises(ResourceLimit, match="closed-set search states"):
        solve_csp(chain, 2)


# Every table of arity at most two, the constant ones included.
EVERY_SMALL_TABLE = [
    ConstraintFunction(f"t{arity}_{j}", arity, tuple(j >> i & 1 for i in range(1 << arity)))
    for arity in (0, 1, 2)
    for j in range(1 << (1 << arity))
]


def test_classification_matches_the_table_predicates():
    # The classifier reads each table as _read does; on every family of
    # one to three tables it must agree with the one built from exact
    # truth-table tests.
    assert len(EVERY_SMALL_TABLE) == 22
    for size in (1, 2, 3):
        for fam in itertools.combinations(EVERY_SMALL_TABLE, size):
            assert classify_binary_family(fam) == binary_leaf.classify(list(fam)), fam


def test_downward_closed_no_past_the_scan_cap():
    # 80 variables and k = 8 is C(80, 8) > FALLBACK_CAP subsets, which
    # the scan refuses.  In both instances the k-IS search settles NO:
    # the first pins 69 variables false, so 11 are left for 8; the second
    # covers every pair inside two halves of 40 by at-most-one
    # constraints, so no three variables can be true.
    from sparsekis import csp

    assert comb(80, 8) > csp.FALLBACK_CAP
    nor3 = at_most(0, 3)
    pinned = [(nor3, (3 * i + 1, 3 * i + 2, 3 * i + 3)) for i in range(23)]
    pinned += [(NAND3, c) for c in itertools.combinations(range(70, 81), 3)]
    halves = []
    for half in (range(1, 41), range(41, 81)):
        chunks = [tuple(half[i:i + 3]) for i in range(0, 40, 3)]
        halves += [(at_most(1, len(a + b)), a + b) for a, b in itertools.combinations(chunks, 2)]
    for cons in (pinned, halves):
        phi = CspInstance(80, tuple(cons))
        with pytest.raises(ResourceLimit, match="exhaustive subset scan"):
            csp._exhaustive(csp._root(phi, 8))
        res = solve_csp(phi, 8)
        assert not res and res.route == "regime KIS" and res.assignment is None


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
    # Every triple of four variables rejects exactly two true: too dense
    # for the greedy, and not downward closed, so the scan answers.
    twos = CspInstance(4, tuple(
        (NOT_TWO, c) for c in itertools.combinations(range(1, 5), 3)
    ))
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
        (dense3, 2, "regime KIS"),
        (dense3, 3, "regime KIS"),
        (twos, 1, "exhaustive fallback"),
        (twos, 2, "exhaustive fallback"),
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

    monkeypatch.setattr(csp, "_solve_leaf", lambda leaf, regime: pair_mask)
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
    real_pipeline = nand_impl._solve_branch

    def counted(branch):
        pipeline.append(branch.k)
        return real_pipeline(branch)

    monkeypatch.setattr(nand_impl, "_solve_branch", counted)
    searched = []
    real_search = csp._closed_set_search

    def spied(desc, rows, alive, k, big, state_cap):
        searched.append(state_cap)
        return real_search(desc, rows, alive, k, big, state_cap)

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


def clique_instance() -> tuple[CspInstance, int]:
    """The shape of the benchmark's Clique-regime instances: 200 NAND and
    IMPL constraints on 80 variables, all satisfied by a planted 6-set.
    One OR2 over two planted variables makes branching force one of
    them, so the first leaf carries a forced variable and has a
    solution."""
    rng = random.Random(101)
    n, k = 80, 6
    planted = set(rng.sample(range(1, n + 1), k))
    cons = [(OR2, tuple(sorted(planted)[:2]))]
    while len(cons) < 201:
        c = (rng.choice((NAND2, IMPL)), tuple(rng.sample(range(1, n + 1), 2)))
        if c not in cons and c[0]([int(v in planted) for v in c[1]]):
            cons.append(c)
    return CspInstance(n, tuple(cons)), k


def test_nand_impl_pipeline_builds_no_instance(monkeypatch):
    # Past the state cap one pipeline run solves the first leaf of
    # clique_instance, and nothing after entry builds a checked instance.
    from sparsekis import csp, nand_impl

    phi, k = clique_instance()
    monkeypatch.setattr(csp, "NAND_IMPL_STATE_CAP", 0)
    pipeline = []
    real_pipeline = nand_impl._solve_branch

    def counted(branch):
        pipeline.append(branch.k)
        return real_pipeline(branch)

    built = []
    real_init = CspInstance.__post_init__

    def counted_init(self):
        built.append(self.n)
        real_init(self)

    monkeypatch.setattr(nand_impl, "_solve_branch", counted)
    monkeypatch.setattr(CspInstance, "__post_init__", counted_init)
    res = solve_csp(phi, k)
    monkeypatch.undo()
    assert res.satisfiable and res.route == "regime Clique(0)"
    assert len(res.assignment) == k and phi.satisfied_by(res.assignment)
    assert len(pipeline) == 1
    assert built == []


def test_nand_impl_pipeline_reads_its_leaf_once(monkeypatch):
    # Over the whole solve_csp call each leaf is read once, by the binary
    # leaf solver: past the state cap the pipeline takes the branch that
    # solver already read and pruned.  Branching fixes the OR2 of
    # clique_instance with _fix before any leaf is solved, so inside the
    # pipeline nothing is read, fixed or specialised.
    from sparsekis import csp, nand_impl

    phi, k = clique_instance()
    monkeypatch.setattr(csp, "NAND_IMPL_STATE_CAP", 0)
    inside = []
    reads = []
    seen = {"_read": 0, "_fix": 0, "specialize": 0}

    def spy(name, real):
        def counted(*args):
            if name == "_read":
                reads.append(1)
            if inside:
                seen[name] += 1
            return real(*args)
        return counted

    for name in seen:
        monkeypatch.setattr(csp, name, spy(name, getattr(csp, name)))
    leaves = []
    real_leaf = csp._solve_leaf

    def leaf_solver(leaf, regime):
        leaves.append(leaf)
        return real_leaf(leaf, regime)

    real_pipeline = nand_impl._solve_branch

    def pipeline(branch):
        inside.append(branch)
        try:
            return real_pipeline(branch)
        finally:
            inside.clear()

    monkeypatch.setattr(csp, "_solve_leaf", leaf_solver)
    monkeypatch.setattr(nand_impl, "_solve_branch", pipeline)
    res = solve_csp(phi, k)
    assert res.satisfiable and res.route == "regime Clique(0)"
    assert len(reads) == len(leaves) == 1
    assert seen == {"_read": 0, "_fix": 0, "specialize": 0}


# Every binary table but the constant-true one, and every unary table.
EVERY_TABLE = [f for f in EVERY_SMALL_TABLE if f.arity and not f.is_constant_true]


@pytest.mark.parametrize("cap", ["default", "zero"])
def test_binary_leaves_match_reference(monkeypatch, cap):
    # The mask-form leaf solver and the bounded branching must give the
    # answer, witness and route of the constraint-list reference, on
    # every table mix and every budget, with and without the nand_impl
    # pipeline behind the closed-set search.
    from sparsekis import csp

    if cap == "zero":
        monkeypatch.setattr(csp, "NAND_IMPL_STATE_CAP", 0)
    rng = random.Random(81)
    routes = set()
    for _ in range(150):
        n = rng.randint(2, 8)
        fam = rng.sample(EVERY_TABLE, rng.randint(1, 4))
        phi = random_csp(rng, n, fam, rng.randint(0, 2 * n))
        for k in range(n + 2):
            got = solve_csp(phi, k)
            with monkeypatch.context() as m:
                m.setattr(csp, "_branch", binary_leaf.branch)
                m.setattr(csp, "_solve_leaf", binary_leaf.solve_leaf_binary)
                want = solve_csp(phi, k)
            assert (got.satisfiable, got.assignment, got.route) == (
                want.satisfiable, want.assignment, want.route
            ), (format_csp(phi), k)
            routes.add((got.route, got.satisfiable))
    assert {(f"regime {r}", yes) for r in ("Linear", "Subexponential", "KIS", "Clique(0)")
            for yes in (True, False)} <= routes


def test_clique_leaf_pruned_below_k_skips_the_search(monkeypatch):
    # D(1) = {1, 2} holds the NAND pair, so 1 goes and three variables
    # are left for k = 4, while 3 -> 4 still implies: NO, with no search.
    from sparsekis import csp

    searched = []
    monkeypatch.setattr(csp, "_closed_set_search", lambda *args: searched.append(args))
    phi = CspInstance(4, ((IMPL, (1, 2)), (NAND2, (1, 2)), (IMPL, (3, 4))))
    res = solve_csp(phi, 4)
    assert (res.satisfiable, res.route) == (False, "regime Clique(0)")
    assert searched == [] and brute_solve_csp(phi, 4) is None


def test_subexponential_leaf_pruned_free_of_implications(monkeypatch):
    # Implication cycles longer than k are pruned whole, so no
    # implication is left and the leaf goes to k-IS, which must answer
    # as the reference's closed-set search does: the k lowest survivors.
    from sparsekis import csp

    rng = random.Random(29)
    for _ in range(40):
        k = rng.randint(1, 4)
        cons = []
        v = 1
        for _ in range(rng.randint(1, 3)):
            cycle = list(range(v, v + rng.randint(k + 1, k + 3)))
            cons += [(IMPL, (a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
            v = cycle[-1] + 1
        n = v - 1 + rng.randint(0, 2 * k)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        phi = CspInstance(n, tuple((f, tuple(order[u - 1] for u in vs)) for f, vs in cons))
        searched = []
        real = csp._closed_set_search

        def spied(*args):
            searched.append(args)
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(csp, "_closed_set_search", spied)
            got = solve_csp(phi, k)
        with monkeypatch.context() as m:
            m.setattr(csp, "_branch", binary_leaf.branch)
            m.setattr(csp, "_solve_leaf", binary_leaf.solve_leaf_binary)
            want = solve_csp(phi, k)
        assert (got.satisfiable, got.assignment, got.route) == (
            want.satisfiable, want.assignment, want.route
        ), (format_csp(phi), k)
        assert got.route == "regime Subexponential" and searched == []
        assert got.satisfiable == (n - len(cons) >= k)


def test_branching_bound_cuts_only_empty_nodes(monkeypatch):
    # A cut node packs more disjoint all-false-violated constraints than
    # its budget; the oracle must find no residual solution there, and
    # the leaves are still the reference's.
    from sparsekis import csp

    cuts = []
    real = csp._first_violated

    def spied(leaf):
        got = real(leaf)
        if got == ():
            cuts.append(leaf)
        return got

    monkeypatch.setattr(csp, "_first_violated", spied)
    rng = random.Random(82)
    cut_with_budget = 0
    for arities in [range(1, 3), range(3, 7)] * 60:
        phi = random_family_instance(rng, arities)
        k = rng.randint(0, 4)
        cuts.clear()
        assert csp._branch(phi, k) == binary_leaf.branch(phi, k)
        for leaf in cuts:
            inst = _checked(phi, leaf)
            assert leaf.k > inst.n or brute_solve_csp(inst, leaf.k) is None
            cut_with_budget += leaf.k > 0
    assert cut_with_budget


def planted_instance(rng, family, n, m, k):
    """m distinct random constraints over `family` that a planted k-set
    satisfies, with that set."""
    planted = set(rng.sample(range(1, n + 1), k))
    cons: dict = {}
    while len(cons) < m:
        f = rng.choice(family)
        vs = tuple(rng.sample(range(1, n + 1), f.arity))
        if f([int(v in planted) for v in vs]):
            cons[f.name, vs] = (f, vs)
    return CspInstance(n, tuple(cons.values()))


@pytest.mark.parametrize(
    "family, n, m, k, route",
    [
        ((NAND2,), 400, 400, 5, "regime KIS"),
        ((NAND2,), 40, 300, 5, "regime KIS"),
        ((IMPL, NOR2), 600, 900, 25, "regime Subexponential"),
        ((EQ2,), 300, 200, 40, "regime Linear"),
        ((NAND2, IMPL), 80, 200, 6, "regime Clique(0)"),
    ],
    ids=["kis-turan", "kis-decide", "subexponential", "linear", "clique"],
)
def test_binary_route_never_specializes(monkeypatch, family, n, m, k, route):
    # The benchmark's binary kinds at the default state cap: no
    # constraint is specialised or fixed anywhere, and a leaf with
    # implication structure builds its closure once.
    from sparsekis import csp

    def refuse(*args):
        raise AssertionError("specialised on the binary route")

    closures = []
    real_closure = csp._closure

    def counted(*args):
        closures.append(1)
        return real_closure(*args)

    monkeypatch.setattr(csp, "_fix", refuse)
    monkeypatch.setattr(csp, "specialize", refuse)
    monkeypatch.setattr(csp, "_closure", counted)
    rng = random.Random(83)
    for _ in range(3):
        phi = planted_instance(rng, family, n, m, k)
        closures.clear()
        res = solve_csp(phi, k)
        assert res and res.route == route
        assert len(res.assignment) == k and phi.satisfied_by(res.assignment)
        assert len(closures) == (route in ("regime Subexponential", "regime Clique(0)"))


DEEP_SEARCHES = """
from sparsekis.csp import IMPL, NAND2, ConstraintFunction, CspInstance, solve_csp
one = ConstraintFunction("one", 1, (0, 1))
cases = [
    (CspInstance(1500, ((IMPL, (1, 2)),)), 1200),
    (CspInstance(1500, ((IMPL, (1, 2)), (NAND2, (3, 4)))), 1200),
    (CspInstance(1200, tuple((one, (v,)) for v in range(1, 1101))), 1100),
]
for phi, k in cases:
    res = solve_csp(phi, k)
    print(res.route, res.satisfiable and len(res.assignment) == k
          and phi.satisfied_by(res.assignment))
"""


def test_deep_searches_need_no_deep_python_stack():
    # A closed-set search (Subexponential, and Clique below its state
    # cap) whose union grows one variable per step, and a branching path
    # 1100 deep, each in a fresh interpreter at the default recursion
    # limit.
    src = str(Path(sparsekis.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", DEEP_SEARCHES],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "regime Subexponential True", "regime Clique(0) True", "regime Linear True",
    ]
