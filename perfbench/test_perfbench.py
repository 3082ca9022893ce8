"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import ast
import inspect
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest  # noqa: E402

import sparsekis as sk  # noqa: E402

import check  # noqa: E402
import instances as inst  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pool_is_identical_for_the_same_seed(name):
    wl = WORKLOADS[name]
    assert wl.make_pool(7) == wl.make_pool(7)
    assert wl.make_pool(7) != wl.make_pool(8)


def test_relabelled_instance_keeps_its_count():
    raw = inst.random_hypergraph(random.Random(1), 12, {2: 10, 3: 12})
    perm = inst.permutation(random.Random(2), 12)
    assert check.count_k_is(inst.relabel_hypergraph(raw, perm), 4) == check.count_k_is(raw, 4)


def test_planted_csp_is_satisfied_by_its_plant():
    rng = random.Random(3)
    planted = set(rng.sample(range(1, 31), 6))
    raw = inst.random_csp(rng, 30, ("nand2", "impl", "or2", "eq2", "nor2"), 40, planted)
    assert check.assignment_ok(raw, 6, sorted(planted))


def test_counter_matches_the_oracle():
    rng = random.Random(5)
    for _ in range(25):
        raw = inst.random_hypergraph(rng, 11, {2: 9, 3: 12, 4: 3})
        k = rng.randrange(0, 7)
        assert check.count_k_is(raw, k) == sk.brute_count_k_is(inst.to_hypergraph(sk, raw), k)


def test_checker_rejects_a_corrupted_witness():
    raw = (6, ((1, 2), (3, 4, 5)))
    assert check.witness_ok(raw, 3, (1, 3, 6))
    assert not check.witness_ok(raw, 3, (1, 2, 6))  # holds the pair 1-2
    assert not check.witness_ok(raw, 4, (3, 4, 5, 6))  # holds the triple
    assert not check.witness_ok(raw, 3, (1, 3))  # wrong size
    assert not check.witness_ok(raw, 3, (1, 3, 3))  # repeated vertex
    assert not check.witness_ok(raw, 3, (1, 3, 7))  # out of range


def test_checker_rejects_a_corrupted_assignment():
    t = inst.TABLES
    raw = (5, (("nand2", t["nand2"], (1, 2)), ("impl", t["impl"], (3, 4)), ("or2", t["or2"], (4, 5))))
    assert check.assignment_ok(raw, 2, (3, 4))
    assert not check.assignment_ok(raw, 2, (1, 2))  # breaks the NAND and the OR
    assert not check.assignment_ok(raw, 2, (3, 1))  # 3 without 4 breaks the IMPL
    assert not check.assignment_ok(raw, 3, (3, 4))  # wrong weight
    assert not check.assignment_ok(raw, 2, (4, 4))  # repeated variable


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 3.0, 0, None],
        ["b", 4.0, 8.0, 0, None],
        ["c", 5.0, 6.0, 2, None],
        ["d", 6.5, 7.0, 2, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 2.5, 1.0, 0.5])


def test_tracer_counts_calls_and_restores_the_library():
    original = sk.kis.count_k_is_mixed
    H = sk.Hypergraph(8, (frozenset((1, 2)), frozenset((3, 4, 5))))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ok, witness = sk.decide_k_is(H, 3, want_witness=True)
    finally:
        tracer.uninstall()
    assert sk.kis.count_k_is_mixed is original and sk.count_k_is_mixed is original
    assert ok and not tracer.missing
    m = tracing.layer_metrics(tracer.spans)
    decide = [s for s in tracer.spans if s[0] == "kis.decide_k_is"]
    assert len(decide) == 1 and decide[0][4] is True
    assert m["kis.count_k_is_mixed.calls_per_witness"] == sum(
        1 for s in tracer.spans if s[0] == "kis.count_k_is_mixed"
    )


def _routes_in_solve_csp() -> set[str]:
    """Route strings written in solve_csp, with "regime {regime}" expanded."""
    regimes = [str(sk.Regime(kind)) for kind in ("Linear", "Subexponential", "KIS")]
    # The Clique offset is s_min of a binary function that is satisfiable:
    # 0, 1 or 2.
    regimes += [str(sk.Regime("Clique", offset=o)) for o in range(3)]
    out = set()
    tree = ast.parse(inspect.getsource(sk.csp.solve_csp))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CspResult":
            route = node.args[2]
            if isinstance(route, ast.Constant):
                out.add(route.value)
            else:
                assert ast.unparse(route) == "f'regime {regime}'"
                out |= {f"regime {r}" for r in regimes}
    return out


def test_route_map_covers_every_route_solve_csp_returns():
    routes = _routes_in_solve_csp()
    assert {"weight zero", "budget exceeds variable count", "regime Clique(1)"} <= routes
    assert routes == set(tracing.ROUTES)
    stems = {tracing.route_metric(r) for r in routes}
    assert len(stems) == len(routes) and "csp.route.other" not in stems
    for stem in stems:
        assert all(ch.isalnum() or ch in "_.-" for ch in stem)
    phi = sk.CspInstance(2, ((sk.NAND2, (1, 2)),))
    assert sk.solve_csp(phi, 0).route == "weight zero"
    assert sk.solve_csp(phi, 3).route == "budget exceeds variable count"
    assert tracing.route_metric("something new") == "csp.route.other"


def test_every_per_layer_metric_is_reported():
    import json

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    reported = set(tracing.layer_metrics([])) | {"kis.witness_over_count", "trace_overhead_ratio"}
    assert names == reported
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.unit_of(m["name"])


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    import run

    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "ie-count", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
