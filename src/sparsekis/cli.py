"""Command-line front end.

Subcommands parse HGR/CSP files, run the fast solvers or their
exhaustive oracles, generate seeded instances (random models plus the
hardness constructions), and sweep benchmark grids into CSV.

Exit codes: 0 on success (a NO answer included), 1 for NO under
``--strict-exit``, 2 for unreadable input or bad parameters, 3 when a
resource limit stops a solver.  All randomness flows from one 64-bit
``--seed`` through a private ``random.Random``; timing uses the
monotonic clock.
"""

from __future__ import annotations

import argparse
import csv as _csv
import itertools
import json
import math
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import kis, oracle, reductions
from .csp import (
    EQ2,
    IMPL,
    NAND2,
    NEVER1,
    NOR2,
    NOT1,
    OR2,
    ConstraintFunction,
    CspInstance,
    CspParseError,
    classify_binary_family,
    format_csp,
    parse_csp,
    solve_csp,
)
from .errors import ResourceLimit
from .hypergraph import (
    MAX_ARITY,
    HgrError,
    Hypergraph,
    format_hgr,
    parse_hypergraph,
)
from .reductions import _ceil_pow


# ---------------------------------------------------------------------------
# function registry for --fn / --family flags


def _nand_fn(c: int) -> ConstraintFunction:
    table = [1] * (1 << c)
    table[-1] = 0
    return ConstraintFunction(f"nand{c}", c, tuple(table))


_AND2 = ConstraintFunction("and2", 2, (0, 0, 0, 1))
_ATMOST1OF3 = ConstraintFunction(
    "atmost1of3", 3, tuple(1 if j.bit_count() <= 1 else 0 for j in range(8))
)

_FUNCTIONS: dict[str, ConstraintFunction] = {
    f.name: f
    for f in (
        NAND2, IMPL, EQ2, OR2, NOR2, NOT1, NEVER1, _AND2, _ATMOST1OF3,
        _nand_fn(3), _nand_fn(4), _nand_fn(5), _nand_fn(6),
    )
}


def _lookup_fn(name: str) -> ConstraintFunction:
    try:
        return _FUNCTIONS[name]
    except KeyError:
        known = ", ".join(sorted(_FUNCTIONS))
        raise ValueError(f"unknown function {name!r} (known: {known})") from None


def _family(spec: str) -> list[ConstraintFunction]:
    names = [s for s in spec.split(",") if s]
    if not names:
        raise ValueError("empty function family")
    return [_lookup_fn(s) for s in names]


# ---------------------------------------------------------------------------
# small I/O helpers


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit_report(args: argparse.Namespace, payload: dict) -> None:
    if getattr(args, "json", None):
        _write_text(args.json, json.dumps(payload) + "\n")


def _report(
    n: int,
    m: int,
    m_i: dict[int, int],
    k: int,
    decision: bool,
    count: Optional[int],
    elapsed_ns: int,
) -> dict:
    return {
        "schema": 1,
        "n": n,
        "m": m,
        "m_i": {str(i): m_i[i] for i in sorted(m_i)},
        "k": k,
        "decision": "YES" if decision else "NO",
        "count": count,
        "elapsed": elapsed_ns / 1e9,
    }


def _csp_arity_counts(phi: CspInstance) -> dict[int, int]:
    counts: dict[int, int] = {}
    for f, _ in phi.constraints:
        counts[f.arity] = counts.get(f.arity, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# witness checks (always re-verified against the parsed input before print)


def _check_kis_witness(H: Hypergraph, wit: Iterable[int], k: int) -> list[int]:
    chosen = sorted(set(wit))
    assert len(chosen) == k, "witness has wrong size"
    assert all(1 <= v <= H.n for v in chosen), "witness vertex out of range"
    s = set(chosen)
    assert all(not e <= s for e in H.edges), "witness contains an edge"
    return chosen


def _check_csp_witness(phi: CspInstance, wit: Iterable[int], k: int) -> list[int]:
    chosen = sorted(set(wit))
    assert len(chosen) == k, "assignment has wrong weight"
    assert all(1 <= v <= phi.n for v in chosen), "variable out of range"
    assert phi.satisfied_by(chosen), "assignment violates a constraint"
    return chosen


# ---------------------------------------------------------------------------
# solve / count / classify commands


def _finish_decision(args: argparse.Namespace, decision: bool) -> int:
    return 1 if (args.strict_exit and not decision) else 0


def _cmd_solve_kis(args: argparse.Namespace) -> int:
    H = parse_hypergraph(_read_text(args.path))
    t0 = time.monotonic_ns()
    count: Optional[int] = None
    wit: Optional[frozenset[int]] = None
    if args.count:
        count = kis.count_k_is_mixed(H, args.k)
        decision = count > 0
        if args.witness and decision:
            found, wit = kis.decide_k_is(H, args.k, want_witness=True)
            assert found, "counter and decider disagree"
    else:
        decision, wit = kis.decide_k_is(H, args.k, want_witness=args.witness)
    elapsed = time.monotonic_ns() - t0

    print("YES" if decision else "NO")
    if count is not None:
        print(f"count {count}")
    if wit is not None:
        print("witness " + " ".join(map(str, _check_kis_witness(H, wit, args.k))))
    _emit_report(
        args, _report(H.n, H.m, H.arity_counts, args.k, decision, count, elapsed)
    )
    return _finish_decision(args, decision)


def _cmd_count_kis(args: argparse.Namespace) -> int:
    H = parse_hypergraph(_read_text(args.path))
    t0 = time.monotonic_ns()
    count = kis.count_k_is_mixed(H, args.k)
    elapsed = time.monotonic_ns() - t0
    print(count)
    _emit_report(
        args, _report(H.n, H.m, H.arity_counts, args.k, count > 0, count, elapsed)
    )
    return _finish_decision(args, count > 0)


def _cmd_solve_csp(args: argparse.Namespace) -> int:
    phi = parse_csp(_read_text(args.path))
    if args.regime:
        print(f"regime {classify_binary_family(phi.functions)}")
    t0 = time.monotonic_ns()
    res = solve_csp(phi, args.k, want_witness=args.witness)
    elapsed = time.monotonic_ns() - t0

    print("YES" if res.satisfiable else "NO")
    if args.witness and res.assignment is not None:
        print(
            "witness "
            + " ".join(map(str, _check_csp_witness(phi, res.assignment, args.k)))
        )
    _emit_report(
        args,
        _report(
            phi.n, phi.m, _csp_arity_counts(phi), args.k,
            res.satisfiable, None, elapsed,
        ),
    )
    return _finish_decision(args, res.satisfiable)


def _cmd_classify(args: argparse.Namespace) -> int:
    phi = parse_csp(_read_text(args.path))
    print(classify_binary_family(phi.functions))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.target == "kis":
        H = parse_hypergraph(_read_text(args.path))
        t0 = time.monotonic_ns()
        count = oracle.brute_count_k_is(H, args.k)
        decision = count > 0
        wit: Optional[tuple[int, ...]] = None
        if args.witness and decision:
            for combo in itertools.combinations(range(1, H.n + 1), args.k):
                s = set(combo)
                if all(not e <= s for e in H.edges):
                    wit = combo
                    break
        elapsed = time.monotonic_ns() - t0
        print("YES" if decision else "NO")
        if args.count:
            print(f"count {count}")
        if wit is not None:
            print(
                "witness " + " ".join(map(str, _check_kis_witness(H, wit, args.k)))
            )
        _emit_report(
            args,
            _report(H.n, H.m, H.arity_counts, args.k, decision, count, elapsed),
        )
        return _finish_decision(args, decision)

    phi = parse_csp(_read_text(args.path))
    t0 = time.monotonic_ns()
    sol = oracle.brute_solve_csp(phi, args.k)
    elapsed = time.monotonic_ns() - t0
    decision = sol is not None
    print("YES" if decision else "NO")
    if args.witness and sol is not None:
        print("witness " + " ".join(map(str, _check_csp_witness(phi, sol, args.k))))
    _emit_report(
        args,
        _report(
            phi.n, phi.m, _csp_arity_counts(phi), args.k, decision, None, elapsed
        ),
    )
    return _finish_decision(args, decision)


# ---------------------------------------------------------------------------
# random instance models (shared by gen and bench)


def _sample_subsets(
    rng: random.Random, n: int, r: int, want: int
) -> list[frozenset[int]]:
    """`want` distinct r-subsets of 1..n, deterministic for a given rng state."""
    total = math.comb(n, r)
    if want > total:
        raise ValueError(f"cannot place {want} distinct arity-{r} edges on {n} vertices")
    if 3 * want >= total:
        pool = [frozenset(c) for c in itertools.combinations(range(1, n + 1), r)]
        return rng.sample(pool, want)
    seen: set[frozenset[int]] = set()
    out: list[frozenset[int]] = []
    while len(out) < want:
        e = frozenset(rng.sample(range(1, n + 1), r))
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


def _random_hgr(
    rng: random.Random, n: int, gammas: dict[int, float]
) -> Hypergraph:
    """Random hypergraph with ceil(n^gamma_i) arity-i edges, capped at C(n, i)."""
    edges: list[frozenset[int]] = []
    for arity in sorted(gammas):
        want = min(_ceil_pow(n, gammas[arity]), math.comb(n, arity))
        edges.extend(_sample_subsets(rng, n, arity, want))
    return Hypergraph(n, tuple(edges))


def _random_csp(
    rng: random.Random, n: int, family: Sequence[ConstraintFunction], m: int
) -> CspInstance:
    """m distinct constraints, each a family member on ordered distinct variables."""
    total = sum(math.perm(n, f.arity) for f in family)
    m = min(m, total)
    if 3 * m >= total:
        pool = [
            (f, vs)
            for f in family
            for vs in itertools.permutations(range(1, n + 1), f.arity)
        ]
        return CspInstance(n, tuple(rng.sample(pool, m)))
    seen: set[tuple[str, tuple[int, ...]]] = set()
    cons: list[tuple[ConstraintFunction, tuple[int, ...]]] = []
    while len(cons) < m:
        f = rng.choice(list(family))
        vs = tuple(rng.sample(range(1, n + 1), f.arity))
        if (f.name, vs) not in seen:
            seen.add((f.name, vs))
            cons.append((f, vs))
    return CspInstance(n, tuple(cons))


def _random_partite(
    rng: random.Random, parts: Sequence[int], r: int, want: int
) -> list[frozenset[int]]:
    """Distinct r-uniform edges with at most one endpoint per part."""
    if r > len(parts):
        raise ValueError(f"uniformity {r} exceeds the {len(parts)} parts")
    bounds = []
    start = 1
    for size in parts:
        bounds.append(range(start, start + size))
        start += size
    total = sum(
        math.prod(len(bounds[i]) for i in combo)
        for combo in itertools.combinations(range(len(parts)), r)
    )
    want = min(want, total)
    if 3 * want >= total:
        pool = [
            frozenset(vs)
            for combo in itertools.combinations(range(len(parts)), r)
            for vs in itertools.product(*(bounds[i] for i in combo))
        ]
        return rng.sample(pool, want)
    seen: set[frozenset[int]] = set()
    out: list[frozenset[int]] = []
    while len(out) < want:
        combo = rng.sample(range(len(parts)), r)
        e = frozenset(rng.choice(bounds[i]) for i in combo)
        if len(e) == r and e not in seen:
            seen.add(e)
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# gen command


def _provenance(recipe: str, pairs: Sequence[tuple[str, object]]) -> list[str]:
    echo = " ".join(f"{key}={val}" for key, val in pairs if val is not None)
    return [f"sparsekis gen {recipe} {echo}".rstrip()]


def _gen_random_hgr(args: argparse.Namespace) -> tuple[str, list[str]]:
    gammas = {
        i: getattr(args, f"gamma{i}")
        for i in range(2, MAX_ARITY + 1)
        if getattr(args, f"gamma{i}") is not None
    }
    if not gammas:
        raise ValueError("give at least one of --gamma2 .. --gamma6")
    rng = random.Random(args.seed)
    H = _random_hgr(rng, args.n, gammas)
    pairs = [("n", args.n)]
    pairs += [(f"gamma{i}", gammas[i]) for i in sorted(gammas)]
    pairs.append(("seed", args.seed))
    return format_hgr(H, comments=_provenance("random-hgr", pairs)), []


def _gen_random_csp(args: argparse.Namespace) -> tuple[str, list[str]]:
    family = _family(args.family)
    if (args.m is None) == (args.gamma is None):
        raise ValueError("give exactly one of --m and --gamma")
    m = args.m if args.m is not None else _ceil_pow(args.n, args.gamma)
    rng = random.Random(args.seed)
    phi = _random_csp(rng, args.n, family, m)
    pairs = [
        ("n", args.n), ("family", args.family), ("m", args.m),
        ("gamma", args.gamma), ("seed", args.seed),
    ]
    return format_csp(phi, comments=_provenance("random-csp", pairs)), []


def _gen_lessthan(args: argparse.Namespace) -> tuple[str, list[str]]:
    fn = _lookup_fn(args.fn)
    cons = reductions.build_less_than(fn, args.vars, range(1, args.vars + 1))
    phi = CspInstance(args.vars, tuple(cons))
    pairs = [("fn", args.fn), ("vars", args.vars)]
    return format_csp(phi, comments=_provenance("lessthan", pairs)), []


def _gen_dense_embed(args: argparse.Namespace) -> tuple[str, list[str]]:
    src = parse_csp(_read_text(args.input))
    fn = _lookup_fn(args.fn)
    out = reductions.dense_embed(src, fn, args.gamma, args.k)
    pairs = [
        ("input", args.input), ("fn", args.fn),
        ("gamma", args.gamma), ("k", args.k),
    ]
    return format_csp(out, comments=_provenance("dense-embed", pairs)), []


def _gen_sparse_embed(args: argparse.Namespace) -> tuple[str, list[str]]:
    src = parse_csp(_read_text(args.input))
    fn = _lookup_fn(args.fn)
    out = reductions.sparse_embed(src, fn, args.gamma, args.k, delta=args.delta)
    pairs = [
        ("input", args.input), ("fn", args.fn), ("gamma", args.gamma),
        ("k", args.k), ("delta", args.delta),
    ]
    return format_csp(out, comments=_provenance("sparse-embed", pairs)), []


def _gen_kis_lb(args: argparse.Namespace) -> tuple[str, list[str]]:
    src = parse_hypergraph(_read_text(args.input))
    out = reductions.gen_kis_sparse_lb(src, args.gamma)
    pairs = [("input", args.input), ("gamma", args.gamma)]
    return format_hgr(out, comments=_provenance("kis-lb", pairs)), []


def _gen_mixed_lb(args: argparse.Namespace) -> tuple[str, list[str]]:
    parts = [int(s) for s in args.parts.split(",") if s]
    if not parts:
        raise ValueError("empty --parts list")
    r = math.floor(args.gamma) if args.gamma > 3 else 3
    rng = random.Random(args.seed)
    msrc = args.msrc if args.msrc is not None else 2 * sum(parts)
    edges = _random_partite(rng, parts, r, msrc)
    out, k_shifted = reductions.gen_mixed_lb(parts, edges, args.arity, args.gamma)
    pairs = [
        ("parts", args.parts), ("arity", args.arity), ("gamma", args.gamma),
        ("msrc", msrc), ("seed", args.seed),
    ]
    comments = _provenance("mixed-lb", pairs) + [f"solve-for k={k_shifted}"]
    return format_hgr(out, comments=comments), []


def _gen_binary_hardness(args: argparse.Namespace) -> tuple[str, list[str]]:
    src = parse_csp(_read_text(args.input))
    family = _family(args.family)
    out, offset = reductions.gen_binary_hardness(src, family, args.gamma)
    pairs = [("input", args.input), ("family", args.family), ("gamma", args.gamma)]
    comments = _provenance("binary-hardness", pairs) + [f"weight-offset {offset}"]
    return format_csp(out, comments=comments), []


_RECIPES = {
    "random-hgr": _gen_random_hgr,
    "random-csp": _gen_random_csp,
    "lessthan": _gen_lessthan,
    "dense-embed": _gen_dense_embed,
    "sparse-embed": _gen_sparse_embed,
    "kis-lb": _gen_kis_lb,
    "mixed-lb": _gen_mixed_lb,
    "binary-hardness": _gen_binary_hardness,
}


def _cmd_gen(args: argparse.Namespace) -> int:
    text, _ = _RECIPES[args.recipe](args)
    _write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# bench command


def _int_list(spec: str) -> list[int]:
    return [int(s) for s in spec.split(",") if s]


def _float_list(spec: str) -> list[float]:
    return [float(s) for s in spec.split(",") if s]


_BENCH_SOLVERS = {
    "random-hgr": ("ie", "decide", "oracle"),
    "random-csp": ("csp", "oracle"),
}


def _bench_cell(
    recipe: str,
    solver: str,
    rng: random.Random,
    n: int,
    gamma: float,
    k: int,
    family: Sequence[ConstraintFunction],
) -> tuple[int, int, bool]:
    """Returns (m, elapsed_ns, decision) for one grid cell."""
    if recipe == "random-hgr":
        H = _random_hgr(rng, n, {3: gamma})
        t0 = time.monotonic_ns()
        if solver == "ie":
            decision = kis.count_k_is_mixed(H, k) > 0
        elif solver == "decide":
            decision = kis.decide_k_is(H, k)[0]
        else:
            decision = oracle.brute_count_k_is(H, k) > 0
        return H.m, time.monotonic_ns() - t0, decision
    m = min(_ceil_pow(n, gamma), sum(math.perm(n, f.arity) for f in family))
    phi = _random_csp(rng, n, family, m)
    t0 = time.monotonic_ns()
    if solver == "csp":
        decision = solve_csp(phi, k, want_witness=False).satisfiable
    else:
        decision = oracle.brute_solve_csp(phi, k) is not None
    return phi.m, time.monotonic_ns() - t0, decision


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.solver not in _BENCH_SOLVERS[args.recipe]:
        allowed = ", ".join(_BENCH_SOLVERS[args.recipe])
        raise ValueError(
            f"solver {args.solver!r} not available for {args.recipe} (use {allowed})"
        )
    family = _family(args.family) if args.recipe == "random-csp" else ()
    ns, gammas, ks = _int_list(args.n), _float_list(args.gamma), _int_list(args.k)

    rows: list[tuple] = []
    medians: list[tuple] = []
    cell = 0
    for n in ns:
        for gamma in gammas:
            for k in ks:
                times = []
                for _ in range(args.repeat):
                    rng = random.Random((args.seed * 1_000_003 + cell) & (2**64 - 1))
                    cell += 1
                    m, elapsed, decision = _bench_cell(
                        args.recipe, args.solver, rng, n, gamma, k, family
                    )
                    times.append(elapsed)
                    rows.append(
                        (args.recipe, n, m, k, args.solver, elapsed,
                         "YES" if decision else "NO")
                    )
                medians.append(
                    (args.recipe, gamma, n, k, args.solver,
                     int(statistics.median(times)))
                )

    def _dump(path: str, header: Sequence[str], data: Sequence[tuple]) -> None:
        out = sys.stdout if path == "-" else open(path, "w", newline="")
        try:
            w = _csv.writer(out)
            w.writerow(header)
            w.writerows(data)
        finally:
            if out is not sys.stdout:
                out.close()

    _dump(args.out, ("recipe", "n", "m", "k", "solver", "elapsed_ns", "decision"), rows)
    if args.plotdata:
        _dump(
            args.plotdata,
            ("recipe", "gamma", "n", "k", "solver", "median_elapsed_ns"),
            medians,
        )
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _add_solve_flags(p: argparse.ArgumentParser, with_count: bool) -> None:
    p.add_argument("path", help="input file, or - for stdin")
    p.add_argument("-k", type=int, required=True, help="solution size / weight")
    p.add_argument("--witness", action="store_true", help="print a verified witness")
    if with_count:
        p.add_argument("--count", action="store_true", help="print the exact count")
    p.add_argument("--json", metavar="PATH", help="write a JSON report (- for stdout)")
    p.add_argument(
        "--strict-exit", action="store_true", dest="strict_exit",
        help="exit 1 on a NO answer",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsekis",
        description="Independent-set and weighted-CSP solvers for sparse instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-kis", help="decide k-independent set in a hypergraph")
    _add_solve_flags(p, with_count=True)
    p.set_defaults(func=_cmd_solve_kis)

    p = sub.add_parser("count-kis", help="count k-independent sets")
    _add_solve_flags(p, with_count=False)
    p.set_defaults(func=_cmd_count_kis)

    p = sub.add_parser("solve-csp", help="decide weight-k satisfiability")
    _add_solve_flags(p, with_count=False)
    p.add_argument(
        "--regime", action="store_true",
        help="also print the family's hardness regime",
    )
    p.set_defaults(func=_cmd_solve_csp)

    p = sub.add_parser("classify", help="print the hardness regime of a binary family")
    p.add_argument("path", help="CSP file, or - for stdin")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("oracle", help="brute-force reference solvers")
    osub = p.add_subparsers(dest="target", required=True)
    q = osub.add_parser("kis", help="exhaustive k-independent-set scan")
    _add_solve_flags(q, with_count=True)
    q.set_defaults(func=_cmd_oracle)
    q = osub.add_parser("csp", help="exhaustive weight-k assignment scan")
    _add_solve_flags(q, with_count=False)
    q.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate instances (deterministic per seed)")
    gsub = p.add_subparsers(dest="recipe", required=True)

    g = gsub.add_parser("random-hgr", help="random hypergraph, ceil(n^gamma_i) edges per arity")
    g.add_argument("--n", type=int, required=True)
    for i in range(2, MAX_ARITY + 1):
        g.add_argument(f"--gamma{i}", type=float, default=None)
    g.add_argument("--seed", type=int, default=0)

    g = gsub.add_parser("random-csp", help="random constraints from a function family")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--family", required=True, help="comma list, e.g. nand2,impl,eq2")
    g.add_argument("--m", type=int, default=None)
    g.add_argument("--gamma", type=float, default=None, help="m = ceil(n^gamma)")
    g.add_argument("--seed", type=int, default=0)

    g = gsub.add_parser("lessthan", help="block forcing weight below the function's threshold")
    g.add_argument("--fn", required=True)
    g.add_argument("--vars", type=int, required=True, help="block size")

    g = gsub.add_parser("dense-embed", help="re-express an all-but-ones instance over a new function")
    g.add_argument("--input", required=True)
    g.add_argument("--fn", required=True)
    g.add_argument("--gamma", type=float, required=True)
    g.add_argument("-k", type=int, required=True)

    g = gsub.add_parser("sparse-embed", help="pad an instance down to a lower density exponent")
    g.add_argument("--input", required=True)
    g.add_argument("--fn", required=True)
    g.add_argument("--gamma", type=float, required=True)
    g.add_argument("-k", type=int, required=True)
    g.add_argument("--delta", type=float, default=None)

    g = gsub.add_parser("kis-lb", help="pad a 3-uniform instance with universal vertices")
    g.add_argument("--input", required=True)
    g.add_argument("--gamma", type=float, required=True)

    g = gsub.add_parser("mixed-lb", help="lift a random partite instance to mixed arity")
    g.add_argument("--parts", required=True, help="comma list of part sizes")
    g.add_argument("--arity", type=int, required=True)
    g.add_argument("--gamma", type=float, required=True)
    g.add_argument("--msrc", type=int, default=None, help="source edge count")
    g.add_argument("--seed", type=int, default=0)

    g = gsub.add_parser("binary-hardness", help="hide a pairwise-exclusion instance in a sparser family")
    g.add_argument("--input", required=True)
    g.add_argument("--family", required=True)
    g.add_argument("--gamma", type=float, required=True)

    for g in gsub.choices.values():
        g.add_argument("--out", default="-", help="output file (default stdout)")
        g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="sweep a grid and write CSV timings")
    p.add_argument("--recipe", choices=sorted(_BENCH_SOLVERS), required=True)
    p.add_argument("--n", required=True, help="comma list")
    p.add_argument("--gamma", required=True, help="comma list")
    p.add_argument("-k", required=True, help="comma list")
    p.add_argument("--solver", required=True, help="ie, decide, oracle, or csp")
    p.add_argument("--family", default="nand2", help="for random-csp cells")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.add_argument("--plotdata", default=None, help="also write per-gamma medians")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (HgrError, CspParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
