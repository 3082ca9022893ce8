"""End-to-end runs of the command-line front end."""

import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sparsekis

from sparsekis.cli import main
from sparsekis.csp import parse_csp
from sparsekis.hypergraph import parse_hypergraph

ONE_EDGE = "p hgr 4 1\ne 1 2 3\n"
TRIANGLE = "p hgr 3 3\ne 1 2\ne 1 3\ne 2 3\n"
NAND_PAIR = "p csp 3 2\nf nand2 2 1110\nc nand2 1 2\nc nand2 2 3\n"
IMPL_EQ = (
    "p csp 3 2\nf impl 2 1011\nf eq2 2 1001\nc impl 1 2\nc eq2 2 3\n"
)
NAND_OR = (
    "p csp 3 2\nf nand2 2 1110\nf or2 2 0111\nc nand2 1 2\nc or2 2 3\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_kis_count_and_witness(tmp_path, capsys):
    p = tmp_path / "one.hgr"
    p.write_text(ONE_EDGE)
    code, out, _ = run(capsys, "solve-kis", str(p), "-k", "3", "--count", "--witness")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "YES"
    assert lines[1] == "count 3"
    wit = set(map(int, lines[2].split()[1:]))
    assert len(wit) == 3 and wit != {1, 2, 3}


def test_count_and_witness_count_once(tmp_path, capsys, monkeypatch):
    from sparsekis import kis

    calls = []
    real = kis._count

    def counted(rows, alive, big, k):
        calls.append(k)
        return real(rows, alive, big, k)

    monkeypatch.setattr(kis, "_count", counted)
    p = tmp_path / "one.hgr"
    p.write_text(ONE_EDGE)
    code, out, _ = run(capsys, "solve-kis", str(p), "-k", "3", "--count", "--witness")
    assert code == 0 and out.splitlines()[1] == "count 3"
    assert calls == [3]


def test_count_and_witness_search_once_on_a_budget_hit(tmp_path, capsys, monkeypatch):
    # With no search budget the greedy's set {1, 2, 3} holds the edge, so
    # the count decides and self-reduction builds the witness; the count
    # runs once before it, and the search once in all.
    from sparsekis import kis

    monkeypatch.setattr(kis, "SEARCH_NODE_BUDGET", 0)
    searches, counts, reducing = [], [], []
    real_search, real_count, real_reduce = (
        kis._search_k_is, kis._count, kis._witness_by_counting
    )

    def searched(*args):
        searches.append(args[-1])
        return real_search(*args)

    def counted(*args):
        counts.append(bool(reducing))
        return real_count(*args)

    def reduced(*args):
        reducing.append(1)
        return real_reduce(*args)

    monkeypatch.setattr(kis, "_search_k_is", searched)
    monkeypatch.setattr(kis, "_count", counted)
    monkeypatch.setattr(kis, "_witness_by_counting", reduced)
    p = tmp_path / "one.hgr"
    p.write_text(ONE_EDGE)
    code, out, _ = run(capsys, "solve-kis", str(p), "-k", "3", "--count", "--witness")
    assert (code, out) == (0, "YES\ncount 3\nwitness 2 3 4\n")
    assert searches == [3] and reducing == [1]
    assert counts.count(False) == 1 and counts[0] is False


def test_zero_count_beside_a_found_set_exits_4(tmp_path, capsys, monkeypatch):
    # A count of 0 contradicts the k-set the search found and checked.
    from sparsekis import kis

    monkeypatch.setattr(kis, "_count", lambda rows, alive, big, k: 0)
    p = tmp_path / "one.hgr"
    p.write_text(ONE_EDGE)
    code, out, err = run(capsys, "solve-kis", str(p), "-k", "3", "--count", "--witness")
    assert (code, out) == (4, "")
    assert "count 0 for k = 3 beside a found k-set" in err


def test_no_answer_and_strict_exit(tmp_path, capsys):
    p = tmp_path / "tri.hgr"
    p.write_text(TRIANGLE)
    code, out, _ = run(capsys, "solve-kis", str(p), "-k", "2")
    assert (code, out.strip()) == (0, "NO")
    code, out, _ = run(capsys, "solve-kis", str(p), "-k", "2", "--strict-exit")
    assert (code, out.strip()) == (1, "NO")


def test_count_kis_bare_number(tmp_path, capsys):
    p = tmp_path / "one.hgr"
    p.write_text(ONE_EDGE)
    code, out, _ = run(capsys, "count-kis", str(p), "-k", "3")
    assert code == 0 and out.strip() == "3"


def test_json_report(tmp_path, capsys):
    p = tmp_path / "one.hgr"
    p.write_text(ONE_EDGE)
    rp = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "solve-kis", str(p), "-k", "3", "--count", "--json", str(rp)
    )
    assert code == 0
    rep = json.loads(rp.read_text())
    assert rep == {
        "schema": 1,
        "n": 4,
        "m": 1,
        "m_i": {"3": 1},
        "k": 3,
        "decision": "YES",
        "count": 3,
        "elapsed": rep["elapsed"],
    }
    assert isinstance(rep["elapsed"], float) and rep["elapsed"] >= 0


def test_csp_json_has_no_count(tmp_path, capsys):
    p = tmp_path / "phi.csp"
    p.write_text(NAND_PAIR)
    rp = tmp_path / "report.json"
    code, out, _ = run(capsys, "solve-csp", str(p), "-k", "2", "--json", str(rp))
    assert code == 0 and out.splitlines()[0] == "YES"
    rep = json.loads(rp.read_text())
    assert rep["count"] is None and rep["m_i"] == {"2": 2}


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(ONE_EDGE))
    code, out, _ = run(capsys, "solve-kis", "-", "-k", "3")
    assert code == 0 and out.strip() == "YES"


def test_parse_error_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.hgr"
    p.write_text("p wrong 3 1\ne 1 2\n")
    code, _, err = run(capsys, "solve-kis", str(p), "-k", "2")
    assert code == 2 and "error" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "solve-kis", str(tmp_path / "nope.hgr"), "-k", "2")
    assert code == 2 and "error" in err


def test_bad_flag_exits_2(tmp_path, capsys):
    p = tmp_path / "one.hgr"
    p.write_text(ONE_EDGE)
    code, _, _ = run(capsys, "solve-kis", str(p), "-k", "2", "--no-such-flag")
    assert code == 2


def test_bad_gen_parameter_exits_2(capsys):
    code, _, err = run(capsys, "gen", "lessthan", "--fn", "nosuch", "--vars", "4")
    assert code == 2 and "unknown function" in err


def test_oracle_limit_exits_3(tmp_path, capsys):
    p = tmp_path / "big.hgr"
    p.write_text("p hgr 100 0\n")
    code, _, err = run(capsys, "oracle", "kis", str(p), "-k", "50")
    assert code == 3 and "resource limit" in err


def test_oracle_agrees_with_solver(tmp_path, capsys):
    hgr = tmp_path / "h.hgr"
    code, _, _ = run(
        capsys, "gen", "random-hgr", "--n", "9", "--gamma3", "1.3",
        "--seed", "11", "--out", str(hgr),
    )
    assert code == 0
    for k in ("3", "4"):
        _, fast, _ = run(capsys, "solve-kis", str(hgr), "-k", k, "--count")
        _, slow, _ = run(capsys, "oracle", "kis", str(hgr), "-k", k, "--count")
        assert fast == slow

    csp = tmp_path / "phi.csp"
    code, _, _ = run(
        capsys, "gen", "random-csp", "--n", "7", "--family", "nand2,impl",
        "--m", "9", "--seed", "12", "--out", str(csp),
    )
    assert code == 0
    for k in ("2", "3"):
        _, fast, _ = run(capsys, "solve-csp", str(csp), "-k", k)
        _, slow, _ = run(capsys, "oracle", "csp", str(csp), "-k", k)
        assert fast == slow


def test_solve_csp_regime_line(tmp_path, capsys):
    p = tmp_path / "phi.csp"
    p.write_text(NAND_PAIR)
    code, out, _ = run(capsys, "solve-csp", str(p), "-k", "1", "--regime")
    assert code == 0
    assert out.splitlines()[0] == "regime KIS"


def test_solve_csp_regime_on_higher_arity(tmp_path, capsys):
    p = tmp_path / "phi.csp"
    p.write_text("p csp 4 1\nf nand3 3 11111110\nc nand3 1 2 3\n")
    code, out, err = run(capsys, "solve-csp", str(p), "-k", "2", "--regime")
    assert (code, out.splitlines(), err) == (0, ["regime n/a", "YES"], "")


def test_classify_families(tmp_path, capsys):
    for text, expect in (
        (NAND_PAIR, "KIS"),
        (IMPL_EQ, "Subexponential"),
        (NAND_OR, "Clique(1)"),
    ):
        p = tmp_path / "phi.csp"
        p.write_text(text)
        code, out, _ = run(capsys, "classify", str(p))
        assert (code, out.strip()) == (0, expect)


def test_csp_witness_verified(tmp_path, capsys):
    p = tmp_path / "phi.csp"
    p.write_text(NAND_PAIR)
    code, out, _ = run(capsys, "solve-csp", str(p), "-k", "1", "--witness")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "YES"
    wit = [int(s) for s in lines[1].split()[1:]]
    assert len(wit) == 1 and 1 <= wit[0] <= 3


def test_gen_is_deterministic(tmp_path, capsys):
    args = ("gen", "random-hgr", "--n", "20", "--gamma2", "1.3",
            "--gamma3", "1.1", "--seed", "7")
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run(capsys, *args, "--out", str(a))
    run(capsys, *args, "--out", str(b))
    run(capsys, "gen", "random-hgr", "--n", "20", "--gamma2", "1.3",
        "--gamma3", "1.1", "--seed", "8", "--out", str(c))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_gen_random_hgr_counts(tmp_path, capsys):
    out = tmp_path / "g.hgr"
    code, _, _ = run(
        capsys, "gen", "random-hgr", "--n", "50", "--gamma2", "1.5",
        "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("# sparsekis gen random-hgr n=50")
    assert "seed=0" in text.splitlines()[0]
    H = parse_hypergraph(text)
    assert H.n == 50 and H.arity_counts == {2: 354}


def test_gen_lessthan(capsys):
    code, out, _ = run(capsys, "gen", "lessthan", "--fn", "nand2", "--vars", "4")
    assert code == 0
    phi = parse_csp(out)
    assert phi.n == 4 and phi.m == 6


def test_gen_dense_embed_pipeline(tmp_path, capsys):
    src = tmp_path / "src.csp"
    src.write_text(NAND_PAIR)
    emb = tmp_path / "emb.csp"
    code, _, _ = run(
        capsys, "gen", "dense-embed", "--input", str(src), "--fn", "atmost1of3",
        "--gamma", "2.5", "-k", "2", "--out", str(emb),
    )
    assert code == 0
    _, want, _ = run(capsys, "oracle", "csp", str(src), "-k", "2")
    _, got, _ = run(capsys, "oracle", "csp", str(emb), "-k", "2")
    assert got == want == "YES\n"


def test_gen_sparse_embed_pipeline(tmp_path, capsys):
    src = tmp_path / "src.csp"
    code, _, _ = run(
        capsys, "gen", "random-csp", "--n", "6", "--family", "nand2",
        "--m", "8", "--seed", "2", "--out", str(src),
    )
    assert code == 0
    emb = tmp_path / "emb.csp"
    code, _, _ = run(
        capsys, "gen", "sparse-embed", "--input", str(src), "--fn", "nand2",
        "--gamma", "1.0", "--delta", "1.5", "-k", "2", "--out", str(emb),
    )
    assert code == 0
    _, want, _ = run(capsys, "oracle", "csp", str(src), "-k", "2")
    _, got, _ = run(capsys, "oracle", "csp", str(emb), "-k", "2")
    assert got == want


def test_gen_kis_lb_pipeline(tmp_path, capsys):
    src = tmp_path / "src.hgr"
    code, _, _ = run(
        capsys, "gen", "random-hgr", "--n", "8", "--gamma3", "1.2",
        "--seed", "3", "--out", str(src),
    )
    assert code == 0
    padded = tmp_path / "pad.hgr"
    code, _, _ = run(
        capsys, "gen", "kis-lb", "--input", str(src), "--gamma", "2.5",
        "--out", str(padded),
    )
    assert code == 0
    _, want, _ = run(capsys, "oracle", "kis", str(src), "-k", "3")
    _, got, _ = run(capsys, "solve-kis", str(padded), "-k", "3")
    assert got == want


@pytest.mark.parametrize("parts", ["0,3,3,3", "3,-1,3,3"])
def test_gen_mixed_lb_bad_part_size_exits_2(capsys, parts):
    # Checked before the sampler draws from the empty or negative part.
    code, out, err = run(
        capsys, "gen", "mixed-lb", f"--parts={parts}", "--arity", "5",
        "--gamma", "2.5", "--msrc", "2",
    )
    assert code == 2 and out == "" and "bad part sizes" in err


def test_gen_mixed_lb_solvefor_comment(tmp_path, capsys):
    out = tmp_path / "mix.hgr"
    code, _, _ = run(
        capsys, "gen", "mixed-lb", "--parts", "2,2,2", "--arity", "4",
        "--gamma", "2.5", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    solve_for = [l for l in text.splitlines() if l.startswith("# solve-for k=")]
    assert len(solve_for) == 1
    k = int(solve_for[0].split("=")[1])
    H = parse_hypergraph(text)
    # Part cliques survive the lift.
    assert {frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})} <= set(H.edges)
    _, a, _ = run(capsys, "solve-kis", str(out), "-k", str(k))
    _, b, _ = run(capsys, "oracle", "kis", str(out), "-k", str(k))
    assert a == b


def test_gen_binary_hardness_offset_comment(tmp_path, capsys):
    src = tmp_path / "src.csp"
    src.write_text(NAND_PAIR)
    out = tmp_path / "hard.csp"
    code, _, _ = run(
        capsys, "gen", "binary-hardness", "--input", str(src), "--family",
        "or2", "--gamma", "1.5", "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert "# weight-offset 1" in text.splitlines()
    _, want, _ = run(capsys, "oracle", "csp", str(src), "-k", "2")
    _, got, _ = run(capsys, "oracle", "csp", str(out), "-k", "3")
    assert got == want


def test_bench_single_cell(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--recipe", "random-hgr", "--n", "8", "--gamma", "1.5",
        "-k", "3", "--solver", "ie", "--out", str(out),
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["recipe", "n", "m", "k", "solver", "elapsed_ns", "decision"]
    assert len(rows) == 2
    recipe, n, m, k, solver, elapsed, decision = rows[1]
    assert (recipe, n, k, solver) == ("random-hgr", "8", "3", "ie")
    assert int(m) == 23 and int(elapsed) >= 0 and decision in ("YES", "NO")


def test_bench_empty_grid_header_only(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--recipe", "random-hgr", "--n", "", "--gamma", "1.5",
        "-k", "3", "--solver", "ie", "--out", str(out),
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 1


def test_bench_edges_grow_with_gamma(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(
        capsys, "bench", "--recipe", "random-hgr", "--n", "10", "--gamma",
        "1.0,1.5,2.0", "-k", "3", "--solver", "decide", "--out", str(out),
    )
    assert code == 0
    ms = [int(r[2]) for r in list(csv.reader(out.read_text().splitlines()))[1:]]
    assert ms == sorted(ms) and len(ms) == 3 and ms[0] < ms[-1]


def test_bench_plotdata_medians(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    plot = tmp_path / "plot.csv"
    code, _, _ = run(
        capsys, "bench", "--recipe", "random-csp", "--n", "8,10", "--gamma",
        "1.2", "-k", "2", "--solver", "csp", "--family", "nand2",
        "--repeat", "3", "--out", str(out), "--plotdata", str(plot),
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert len(rows) == 1 + 2 * 3
    prows = list(csv.reader(plot.read_text().splitlines()))
    assert prows[0] == ["recipe", "gamma", "n", "k", "solver", "median_elapsed_ns"]
    assert len(prows) == 3 and [r[2] for r in prows[1:]] == ["8", "10"]


def test_gen_rejects_repeated_family_name(capsys):
    code, out, err = run(
        capsys, "gen", "random-csp", "--n", "4", "--family", "nand2,nand2",
        "--m", "12", "--seed", "1",
    )
    assert code == 2 and out == ""
    assert "'nand2' repeated" in err


def test_bench_rejects_zero_repeat(capsys):
    code, out, err = run(
        capsys, "bench", "--recipe", "random-hgr", "--n", "8", "--gamma", "1.5",
        "-k", "3", "--solver", "ie", "--repeat", "0",
    )
    assert code == 2 and out == ""
    assert "--repeat must be at least 1" in err


def test_bench_rejects_wrong_solver(capsys):
    code, _, err = run(
        capsys, "bench", "--recipe", "random-hgr", "--n", "8", "--gamma", "1.5",
        "-k", "3", "--solver", "csp",
    )
    assert code == 2 and "not available" in err


# Each patch corrupts one answer on its way to print: a solver's own
# re-check or the CLI's must catch it.
CORRUPTIONS = {
    "decide_k_is": (
        ONE_EDGE, "solve-kis", "3",
        "sparsekis.kis._search_k_is = lambda *a: (True, 0b111)",
    ),
    "check_kis_witness": (
        ONE_EDGE, "solve-kis", "3",
        "sparsekis.kis.decide_k_is = lambda *a, **kw: (True, frozenset({1, 2, 3}))",
    ),
    "csp_verify": (
        NAND_PAIR, "solve-csp", "2",
        "sparsekis.csp._solve_leaf_binary = lambda *a: 0b11",
    ),
    "check_csp_witness": (
        NAND_PAIR, "solve-csp", "2",
        "sparsekis.cli.solve_csp = lambda *a, **kw: "
        "sparsekis.csp.CspResult(True, (1, 2), 'patched')",
    ),
}


@pytest.mark.parametrize("where", sorted(CORRUPTIONS))
def test_corrupted_witness_exits_4_under_optimize(tmp_path, where):
    text, command, k, patch = CORRUPTIONS[where]
    p = tmp_path / "in.txt"
    p.write_text(text)
    argv = [command, str(p), "-k", k, "--witness"]
    script = (
        "import sys, sparsekis.cli, sparsekis.csp, sparsekis.kis\n"
        "assert False, 'asserts must be stripped'\n"
        f"{patch}\n"
        f"sys.exit(sparsekis.cli.main({argv!r}))\n"
    )
    src = str(Path(sparsekis.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 4, done.stderr
    assert "verification failed" in done.stderr
    assert "witness" not in done.stdout


# Each patch breaks one internal count check on the way to `--count`;
# the check must raise, not let a wrong count through, even with
# asserts stripped.
OVERCOUNT_IE = (
    "orig = sparsekis.kis._InvalidCounter.run\n"
    "sparsekis.kis._InvalidCounter.run = lambda self: orig(self) + 100"
)
COUNT_CHECKS = {
    # {4,5,6,7}'s term leaves the 3-vertex residual edge {1,2,3}, so a
    # nested count at k = 3 runs inside the term, and its check raises.
    "residual_term": (
        "p hgr 9 2\ne 1 2 3 4\ne 4 5 6 7\n", "7", OVERCOUNT_IE,
        "for k = 3",
    ),
    "hypergraph_count": (ONE_EDGE, "3", OVERCOUNT_IE, "negative count"),
    "clique_division": (
        ONE_EDGE, "3",
        "orig = sparsekis.cliques.count_triangles_tripartite\n"
        "sparsekis.cliques.count_triangles_tripartite = lambda *a: orig(*a) + 1",
        "not divisible",
    ),
}


@pytest.mark.parametrize("where", sorted(COUNT_CHECKS))
def test_broken_count_exits_4_under_optimize(tmp_path, where):
    text, k, patch, message = COUNT_CHECKS[where]
    p = tmp_path / "in.hgr"
    p.write_text(text)
    argv = ["solve-kis", str(p), "-k", k, "--count"]
    script = (
        "import sys, sparsekis.cli, sparsekis.cliques, sparsekis.kis\n"
        "assert False, 'asserts must be stripped'\n"
        f"{patch}\n"
        f"sys.exit(sparsekis.cli.main({argv!r}))\n"
    )
    src = str(Path(sparsekis.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 4, done.stderr
    assert "verification failed" in done.stderr and message in done.stderr
    assert done.stdout == ""


# ---------------------------------------------------------------------------
# Pinned output bytes: every subcommand over a fixed grid of inputs and
# flags.  Each case's exit code, stdout and stderr are hashed after the
# run-dependent parts are masked (the JSON `elapsed`, the bench time
# column, the temporary directory).  A change to any printed byte shows
# up as a changed digest here.

GRID_HGR = {
    "one": ONE_EDGE,
    "tri": TRIANGLE,
    "mixed": "p hgr 8 5\ne 1 2\ne 3 4 5\ne 2 5 6 7\ne 1 6\ne 6 7 8\n",
    "empty": "p hgr 5 0\n",
}
GRID_CSP = {
    "nand": NAND_PAIR,
    "impl_eq": IMPL_EQ,
    "nand_or": NAND_OR,
    "nand3": "p csp 4 1\nf nand3 3 11111110\nc nand3 1 2 3\n",
}
GRID_GEN = {
    "rhgr": ["random-hgr", "--n", "12", "--gamma2", "1.2", "--gamma3", "1.4",
             "--seed", "4"],
    "rcsp": ["random-csp", "--n", "8", "--family", "nand2,impl,or2", "--m",
             "10", "--seed", "3"],
}


def _grid_cases():
    hgrs = [f"{{tmp}}/{name}.hgr" for name in GRID_HGR] + ["{tmp}/rhgr.hgr"]
    csps = [f"{{tmp}}/{name}.csp" for name in GRID_CSP] + ["{tmp}/rcsp.csp"]
    cases = []
    for path in hgrs:
        for k in ("0", "2", "3", "5"):
            for flags in ((), ("--count",), ("--witness",),
                          ("--count", "--witness", "--json", "-"),
                          ("--strict-exit",)):
                cases.append(["solve-kis", path, "-k", k, *flags])
            cases.append(["count-kis", path, "-k", k, "--json", "-"])
            cases.append(["oracle", "kis", path, "-k", k, "--count", "--witness"])
        cases.append(["count-kis", path, "-k", "3", "--strict-exit"])
        cases.append(["oracle", "kis", path, "-k", "2", "--strict-exit", "--json", "-"])
    for path in csps:
        for k in ("0", "1", "2", "3"):
            for flags in ((), ("--witness",), ("--regime", "--json", "-"),
                          ("--strict-exit",)):
                cases.append(["solve-csp", path, "-k", k, *flags])
            cases.append(["oracle", "csp", path, "-k", k, "--witness", "--json", "-"])
        cases.append(["classify", path])
    cases += [
        ["solve-kis", "{tmp}/bad.hgr", "-k", "2"],
        ["oracle", "csp", "{tmp}/bad.csp", "-k", "2"],
        ["solve-kis", "{tmp}/one.hgr", "-k", "-1"],
        ["solve-kis", "{tmp}/nope.hgr", "-k", "2"],
        ["solve-kis", "{tmp}/one.hgr", "-k", "2", "--no-such-flag"],
        ["oracle", "kis", "{tmp}/big.hgr", "-k", "50"],
        ["oracle", "csp", "{tmp}/nand.csp", "-k", "2", "--count"],
    ]
    gen = [
        ["random-hgr", "--n", "9", "--gamma2", "0.9"],
        ["random-hgr", "--n", "9", "--gamma2", "1.13", "--seed", "8"],
        ["random-hgr", "--n", "9", "--gamma2", "1.9", "--seed", "2"],
        ["random-hgr", "--n", "10", "--gamma2", "1.1", "--gamma3", "1.5",
         "--gamma4", "1.2", "--seed", "5"],
        ["random-hgr", "--n", "6", "--gamma3", "3.0", "--seed", "1"],
        ["random-hgr", "--n", "9"],
        ["random-csp", "--n", "9", "--family", "nand2,impl", "--m", "5", "--seed", "7"],
        ["random-csp", "--n", "4", "--family", "nand2", "--m", "4", "--seed", "3"],
        ["random-csp", "--n", "4", "--family", "nand2,or2", "--m", "20", "--seed", "7"],
        ["random-csp", "--n", "8", "--family", "nand3,eq2", "--gamma", "1.3"],
        ["random-csp", "--n", "8", "--family", "nand2", "--m", "3", "--gamma", "1.3"],
        ["random-csp", "--n", "4", "--family", "nand2,nand2", "--m", "12", "--seed", "1"],
        ["random-csp", "--n", "4", "--family", ",", "--m", "2"],
        ["random-csp", "--n", "4", "--family", "nosuch", "--m", "2"],
        ["lessthan", "--fn", "nand3", "--vars", "5"],
        ["lessthan", "--fn", "nosuch", "--vars", "4"],
        ["dense-embed", "--input", "{tmp}/nand.csp", "--fn", "atmost1of3",
         "--gamma", "2.5", "-k", "2"],
        ["sparse-embed", "--input", "{tmp}/rcsp.csp", "--fn", "nand2",
         "--gamma", "1.0", "-k", "2"],
        ["sparse-embed", "--input", "{tmp}/rcsp.csp", "--fn", "nand2",
         "--gamma", "1.0", "--delta", "1.5", "-k", "2"],
        ["kis-lb", "--input", "{tmp}/rhgr3.hgr", "--gamma", "2.5"],
        ["kis-lb", "--input", "{tmp}/nope.hgr", "--gamma", "2.5"],
        ["mixed-lb", "--parts", "2,2,2", "--arity", "4", "--gamma", "2.5", "--seed", "5"],
        ["mixed-lb", "--parts", "3,3,3", "--arity", "4", "--gamma", "2.5",
         "--msrc", "9", "--seed", "2"],
        ["mixed-lb", "--parts", "3,3,3,3", "--arity", "5", "--gamma", "2.5",
         "--msrc", "4", "--seed", "6"],
        ["mixed-lb", "--parts", "2,3,2,2", "--arity", "5", "--gamma", "4.2",
         "--msrc", "30"],
        ["mixed-lb", "--parts", "2,2", "--arity", "4", "--gamma", "2.5"],
        ["mixed-lb", "--parts", ",", "--arity", "4", "--gamma", "2.5"],
        ["binary-hardness", "--input", "{tmp}/nand.csp", "--family", "or2",
         "--gamma", "1.5"],
        ["binary-hardness", "--input", "{tmp}/nand.csp", "--family", "impl,eq2",
         "--gamma", "1.5"],
    ]
    cases += [["gen", *g, "--out", "-"] for g in gen]
    bench = [
        ["--recipe", "random-hgr", "--n", "8,9", "--gamma", "1.2,1.6", "-k", "3",
         "--solver", "ie", "--repeat", "2"],
        ["--recipe", "random-hgr", "--n", "8", "--gamma", "1.5", "-k", "2,3",
         "--solver", "decide", "--seed", "3"],
        ["--recipe", "random-hgr", "--n", "7", "--gamma", "1.5", "-k", "3",
         "--solver", "oracle"],
        ["--recipe", "random-csp", "--n", "8", "--gamma", "1.2", "-k", "2",
         "--solver", "csp", "--family", "nand2,impl", "--repeat", "2"],
        ["--recipe", "random-csp", "--n", "6", "--gamma", "1.4", "-k", "2",
         "--solver", "oracle"],
        ["--recipe", "random-hgr", "--n", "", "--gamma", "1.5", "-k", "3",
         "--solver", "ie"],
        ["--recipe", "random-hgr", "--n", "8", "--gamma", "1.5", "-k", "3",
         "--solver", "csp"],
        ["--recipe", "random-hgr", "--n", "8", "--gamma", "1.5", "-k", "3",
         "--solver", "ie", "--repeat", "0"],
        ["--recipe", "random-hgr", "--n", "", "--gamma", "1.5", "-k", "3",
         "--solver", "ie", "--repeat", "0"],
    ]
    cases += [["bench", *b, "--out", "-", "--plotdata", "-"] for b in bench]
    return cases


def _masked_run(argv, tmp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    text = re.sub(r'"elapsed": [0-9.e+-]+', '"elapsed": T', text)
    if argv[0] == "bench":
        text = re.sub(r"^((?:[^,\n]*,){5})\d+", r"\1T", text, flags=re.M)
    return f"{code}\0{text}\0{err.getvalue()}".replace(tmp, "{tmp}")


def grid_digests(tmp_path):
    """{case: sha256 prefix} for every grid case, run in-process."""
    tmp = str(tmp_path)
    for name, text in GRID_HGR.items():
        (tmp_path / f"{name}.hgr").write_text(text)
    for name, text in GRID_CSP.items():
        (tmp_path / f"{name}.csp").write_text(text)
    (tmp_path / "bad.hgr").write_text("p wrong 3 1\ne 1 2\n")
    (tmp_path / "bad.csp").write_text("p csp 2 1\nc nand2 1 2\n")
    (tmp_path / "big.hgr").write_text("p hgr 100 0\n")
    (tmp_path / "rhgr3.hgr").write_text(
        "p hgr 8 4\ne 1 2 3\ne 2 4 5\ne 5 6 7\ne 1 7 8\n"
    )
    for name, argv in GRID_GEN.items():
        ext = "hgr" if name == "rhgr" else "csp"
        main(["gen", *argv, "--out", f"{tmp}/{name}.{ext}"])
    digests = {}
    for argv in _grid_cases():
        argv = [a.replace("{tmp}", tmp) for a in argv]
        key = " ".join(argv).replace(tmp, "{tmp}")
        blob = _masked_run(argv, tmp).encode()
        digests[key] = hashlib.sha256(blob).hexdigest()[:16]
    return digests


def test_output_bytes_pinned(tmp_path, monkeypatch):
    # tests/cli_digests.txt holds one "<digest> <case>" line per grid
    # case, as grid_digests computes them; an intended output change
    # rewrites the lines of the cases it changes.
    monkeypatch.setenv("COLUMNS", "80")
    pinned = {}
    for line in (Path(__file__).parent / "cli_digests.txt").read_text().splitlines():
        digest, case = line.split(" ", 1)
        pinned[case] = digest
    got = grid_digests(tmp_path)
    assert sorted(got) == sorted(pinned)
    changed = [case for case in pinned if got[case] != pinned[case]]
    assert not changed, changed


def test_deep_csp_search_answers_yes_under_strict_exit(tmp_path):
    # One implication on 1500 variables at k = 1200: the closed-set
    # search grows its union one variable per step, 1199 steps deep.
    p = tmp_path / "deep.csp"
    p.write_text("p csp 1500 1\nf impl 2 1011\nc impl 1 2\n")
    argv = ["solve-csp", str(p), "-k", "1200", "--strict-exit"]
    script = f"import sys, sparsekis.cli\nsys.exit(sparsekis.cli.main({argv!r}))\n"
    src = str(Path(sparsekis.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "YES\n"
