"""Command-line front end.

Subcommands parse HGR/CSP files, run the fast solvers or their
exhaustive oracles, generate seeded instances (random models plus the
hardness constructions), and sweep benchmark grids into CSV.

Every solve command (`solve-kis`, `count-kis`, `solve-csp`, `oracle
kis|csp`) is a parse plus a `solve` closure handed to `_answer`, the one
place that times the solver, prints the answer, re-checks the witness,
writes the ``--json`` report and picks the exit code.

Exit codes: 0 on success (a NO answer included), 1 for NO under
``--strict-exit``, 2 for unreadable input or bad parameters, 3 when a
resource limit stops a solver, 4 when an answer fails its re-check
against the input (checked under ``python -O`` too).  All randomness
flows from one 64-bit ``--seed`` through a private ``random.Random``;
timing uses the monotonic clock.
"""

from __future__ import annotations

import argparse
import contextlib
import csv as _csv
import itertools
import json
import math
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from . import kis, oracle, reductions
from .csp import (
    EQ2,
    IMPL,
    NAND2,
    NEVER1,
    NOR2,
    NOT1,
    OR2,
    Constraint,
    ConstraintFunction,
    CspInstance,
    classify_binary_family,
    format_csp,
    parse_csp,
    solve_csp,
)
from .errors import ResourceLimit, VerificationError
from .hypergraph import MAX_ARITY, Hypergraph, format_hgr, parse_hypergraph
from .reductions import _ceil_pow

_T = TypeVar("_T")


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
    family = [_lookup_fn(s) for s in names]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"function {name!r} repeated in the family")
    return family


# ---------------------------------------------------------------------------
# small I/O helpers


def _read_text(path: str) -> str:
    return sys.stdin.read() if path == "-" else Path(path).read_text()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _list(spec: str, cast: Callable[[str], _T] = int) -> list[_T]:
    return [cast(s) for s in spec.split(",") if s]


# ---------------------------------------------------------------------------
# witness checks (always re-verified against the parsed input before print)


def _check_kis_witness(H: Hypergraph, wit: Iterable[int], k: int) -> list[int]:
    chosen = sorted(set(wit))
    if len(chosen) != k:
        raise VerificationError("witness has wrong size")
    if not all(1 <= v <= H.n for v in chosen):
        raise VerificationError("witness vertex out of range")
    s = set(chosen)
    if any(e <= s for e in H.edges):
        raise VerificationError("witness contains an edge")
    return chosen


def _check_csp_witness(phi: CspInstance, wit: Iterable[int], k: int) -> list[int]:
    chosen = sorted(set(wit))
    if len(chosen) != k:
        raise VerificationError("assignment has wrong weight")
    if not all(1 <= v <= phi.n for v in chosen):
        raise VerificationError("variable out of range")
    if not phi.satisfied_by(chosen):
        raise VerificationError("assignment violates a constraint")
    return chosen


# ---------------------------------------------------------------------------
# solve / count / classify commands

_Answer = tuple[bool, Optional[int], Optional[Iterable[int]]]


def _answer(
    args: argparse.Namespace,
    inst: Hypergraph | CspInstance,
    solve: Callable[[], _Answer],
    check: Callable[..., list[int]],
) -> int:
    """Time `solve()`, print its answer and pick the exit code.

    `solve()` returns (decision, count or None, witness or None).  The
    answer prints as YES/NO, then the count under --count, then the
    witness once `check` has re-verified it against `inst`; count-kis
    prints the bare count instead.  --json gets the report.
    """
    t0 = time.monotonic_ns()
    decision, count, wit = solve()
    elapsed = time.monotonic_ns() - t0
    if args.command == "count-kis":
        print(count)
    else:
        print("YES" if decision else "NO")
        if getattr(args, "count", False):
            print(f"count {count}")
    if wit is not None:
        print("witness " + " ".join(map(str, check(inst, wit, args.k))))
    if args.json:
        if isinstance(inst, Hypergraph):
            m_i = inst.arity_counts
        else:
            m_i = Counter(f.arity for f, _ in inst.constraints)
        report = {
            "schema": 1,
            "n": inst.n,
            "m": inst.m,
            "m_i": {str(i): m_i[i] for i in sorted(m_i)},
            "k": args.k,
            "decision": "YES" if decision else "NO",
            "count": count,
            "elapsed": elapsed / 1e9,
        }
        _write_text(args.json, json.dumps(report) + "\n")
    return 1 if (args.strict_exit and not decision) else 0


def _cmd_solve_kis(args: argparse.Namespace) -> int:
    H = parse_hypergraph(_read_text(args.path))

    def solve() -> _Answer:
        if not args.count:
            decision, wit = kis.decide_k_is(H, args.k, want_witness=args.witness)
            return decision, None, wit
        count = kis.count_k_is_mixed(H, args.k)
        wit = kis.witness_k_is(H, args.k) if args.witness and count > 0 else None
        return count > 0, count, wit

    return _answer(args, H, solve, _check_kis_witness)


def _cmd_count_kis(args: argparse.Namespace) -> int:
    H = parse_hypergraph(_read_text(args.path))

    def solve() -> _Answer:
        count = kis.count_k_is_mixed(H, args.k)
        return count > 0, count, None

    return _answer(args, H, solve, _check_kis_witness)


def _cmd_solve_csp(args: argparse.Namespace) -> int:
    phi = parse_csp(_read_text(args.path))
    if args.regime:
        regime = classify_binary_family(phi.functions) if phi.max_arity <= 2 else "n/a"
        print(f"regime {regime}")

    def solve() -> _Answer:
        res = solve_csp(phi, args.k, want_witness=args.witness)
        return res.satisfiable, None, res.assignment if args.witness else None

    return _answer(args, phi, solve, _check_csp_witness)


def _cmd_classify(args: argparse.Namespace) -> int:
    phi = parse_csp(_read_text(args.path))
    print(classify_binary_family(phi.functions))
    return 0


def _cmd_oracle_kis(args: argparse.Namespace) -> int:
    H = parse_hypergraph(_read_text(args.path))

    def solve() -> _Answer:
        count = oracle.brute_count_k_is(H, args.k)
        wit = None
        if args.witness and count > 0:
            wit = next(
                combo
                for combo in itertools.combinations(range(1, H.n + 1), args.k)
                if not any(e <= set(combo) for e in H.edges)
            )
        return count > 0, count, wit

    return _answer(args, H, solve, _check_kis_witness)


def _cmd_oracle_csp(args: argparse.Namespace) -> int:
    phi = parse_csp(_read_text(args.path))

    def solve() -> _Answer:
        sol = oracle.brute_solve_csp(phi, args.k)
        return sol is not None, None, sol if args.witness else None

    return _answer(args, phi, solve, _check_csp_witness)


# ---------------------------------------------------------------------------
# random instance models (shared by gen and bench)


def _distinct(
    rng: random.Random,
    want: int,
    total: int,
    pool: Callable[[], list[_T]],
    draw: Callable[[], _T],
) -> list[_T]:
    """min(want, total) distinct items out of `total`, deterministic per rng state.

    A dense request samples the listed `pool()`; a sparse one repeats
    `draw()` and keeps the items not seen before.
    """
    want = min(want, total)
    if 3 * want >= total:
        return rng.sample(pool(), want)
    seen: set[_T] = set()
    out: list[_T] = []
    while len(out) < want:
        item = draw()
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def _random_hgr(
    rng: random.Random, n: int, gammas: dict[int, float]
) -> Hypergraph:
    """Random hypergraph with ceil(n^gamma_i) arity-i edges, capped at C(n, i)."""
    edges: list[frozenset[int]] = []
    for r in sorted(gammas):
        edges += _distinct(
            rng, _ceil_pow(n, gammas[r]), math.comb(n, r),
            lambda: [frozenset(c) for c in itertools.combinations(range(1, n + 1), r)],
            lambda: frozenset(rng.sample(range(1, n + 1), r)),
        )
    return Hypergraph(n, tuple(edges))


def _random_csp(
    rng: random.Random, n: int, family: Sequence[ConstraintFunction], m: int
) -> CspInstance:
    """m distinct constraints, each a family member on ordered distinct variables."""

    def draw() -> Constraint:
        f = rng.choice(family)
        return f, tuple(rng.sample(range(1, n + 1), f.arity))

    cons = _distinct(
        rng, m, sum(math.perm(n, f.arity) for f in family),
        lambda: [
            (f, vs)
            for f in family
            for vs in itertools.permutations(range(1, n + 1), f.arity)
        ],
        draw,
    )
    return CspInstance(n, tuple(cons))


def _random_partite(
    rng: random.Random, parts: Sequence[int], r: int, want: int
) -> list[frozenset[int]]:
    """Distinct r-uniform edges with at most one endpoint per part."""
    if r > len(parts):
        raise ValueError(f"uniformity {r} exceeds the {len(parts)} parts")
    starts = itertools.accumulate(parts, initial=1)
    bounds = [range(s, s + size) for s, size in zip(starts, parts)]
    combos = list(itertools.combinations(range(len(parts)), r))
    return _distinct(
        rng, want, sum(math.prod(len(bounds[i]) for i in c) for c in combos),
        lambda: [
            frozenset(vs)
            for c in combos
            for vs in itertools.product(*(bounds[i] for i in c))
        ],
        lambda: frozenset(
            rng.choice(bounds[i]) for i in rng.sample(range(len(parts)), r)
        ),
    )


# ---------------------------------------------------------------------------
# gen command


def _provenance(args: argparse.Namespace, *names: str) -> list[str]:
    """The header comment: the recipe and each named flag that is set."""
    echo = " ".join(
        f"{name}={getattr(args, name)}"
        for name in names
        if getattr(args, name) is not None
    )
    return [f"sparsekis gen {args.recipe} {echo}".rstrip()]


def _gen_random_hgr(args: argparse.Namespace) -> str:
    gammas = {
        i: getattr(args, f"gamma{i}")
        for i in range(2, MAX_ARITY + 1)
        if getattr(args, f"gamma{i}") is not None
    }
    if not gammas:
        raise ValueError("give at least one of --gamma2 .. --gamma6")
    H = _random_hgr(random.Random(args.seed), args.n, gammas)
    flags = [f"gamma{i}" for i in sorted(gammas)]
    return format_hgr(H, comments=_provenance(args, "n", *flags, "seed"))


def _gen_random_csp(args: argparse.Namespace) -> str:
    family = _family(args.family)
    if (args.m is None) == (args.gamma is None):
        raise ValueError("give exactly one of --m and --gamma")
    m = args.m if args.m is not None else _ceil_pow(args.n, args.gamma)
    phi = _random_csp(random.Random(args.seed), args.n, family, m)
    comments = _provenance(args, "n", "family", "m", "gamma", "seed")
    return format_csp(phi, comments=comments)


def _gen_lessthan(args: argparse.Namespace) -> str:
    fn = _lookup_fn(args.fn)
    cons = reductions.build_less_than(fn, args.vars, range(1, args.vars + 1))
    phi = CspInstance(args.vars, tuple(cons))
    return format_csp(phi, comments=_provenance(args, "fn", "vars"))


def _gen_dense_embed(args: argparse.Namespace) -> str:
    src = parse_csp(_read_text(args.input))
    out = reductions.dense_embed(src, _lookup_fn(args.fn), args.gamma, args.k)
    comments = _provenance(args, "input", "fn", "gamma", "k")
    return format_csp(out, comments=comments)


def _gen_sparse_embed(args: argparse.Namespace) -> str:
    src = parse_csp(_read_text(args.input))
    out = reductions.sparse_embed(
        src, _lookup_fn(args.fn), args.gamma, args.k, delta=args.delta
    )
    comments = _provenance(args, "input", "fn", "gamma", "k", "delta")
    return format_csp(out, comments=comments)


def _gen_kis_lb(args: argparse.Namespace) -> str:
    src = parse_hypergraph(_read_text(args.input))
    out = reductions.gen_kis_sparse_lb(src, args.gamma)
    return format_hgr(out, comments=_provenance(args, "input", "gamma"))


def _gen_mixed_lb(args: argparse.Namespace) -> str:
    parts = _list(args.parts)
    if not parts:
        raise ValueError("empty --parts list")
    reductions._check_parts(parts)
    r = math.floor(args.gamma) if args.gamma > 3 else 3
    if args.msrc is None:
        args.msrc = 2 * sum(parts)
    edges = _random_partite(random.Random(args.seed), parts, r, args.msrc)
    out, k_shifted = reductions.gen_mixed_lb(parts, edges, args.arity, args.gamma)
    comments = _provenance(args, "parts", "arity", "gamma", "msrc", "seed")
    return format_hgr(out, comments=comments + [f"solve-for k={k_shifted}"])


def _gen_binary_hardness(args: argparse.Namespace) -> str:
    src = parse_csp(_read_text(args.input))
    family = _family(args.family)
    out, offset = reductions.gen_binary_hardness(src, family, args.gamma)
    comments = _provenance(args, "input", "family", "gamma")
    return format_csp(out, comments=comments + [f"weight-offset {offset}"])


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
    _write_text(args.out, _RECIPES[args.recipe](args))
    return 0


# ---------------------------------------------------------------------------
# bench command


# recipe -> solver name -> decision on one generated instance
_BENCH_SOLVERS: dict[str, dict[str, Callable[..., bool]]] = {
    "random-hgr": {
        "ie": lambda H, k: kis.count_k_is_mixed(H, k) > 0,
        "decide": lambda H, k: kis.decide_k_is(H, k)[0],
        "oracle": lambda H, k: oracle.brute_count_k_is(H, k) > 0,
    },
    "random-csp": {
        "csp": lambda phi, k: solve_csp(phi, k, want_witness=False).satisfiable,
        "oracle": lambda phi, k: oracle.brute_solve_csp(phi, k) is not None,
    },
}


def _cmd_bench(args: argparse.Namespace) -> int:
    solvers = _BENCH_SOLVERS[args.recipe]
    if args.solver not in solvers:
        raise ValueError(
            f"solver {args.solver!r} not available for {args.recipe} "
            f"(use {', '.join(solvers)})"
        )
    if args.repeat < 1:
        raise ValueError(f"--repeat must be at least 1, got {args.repeat}")
    solver = solvers[args.solver]
    family = _family(args.family) if args.recipe == "random-csp" else ()
    ns, gammas, ks = _list(args.n), _list(args.gamma, float), _list(args.k)

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
                    if args.recipe == "random-hgr":
                        inst = _random_hgr(rng, n, {3: gamma})
                    else:
                        inst = _random_csp(rng, n, family, _ceil_pow(n, gamma))
                    t0 = time.monotonic_ns()
                    decision = solver(inst, k)
                    elapsed = time.monotonic_ns() - t0
                    times.append(elapsed)
                    rows.append(
                        (args.recipe, n, inst.m, k, args.solver, elapsed,
                         "YES" if decision else "NO")
                    )
                medians.append(
                    (args.recipe, gamma, n, k, args.solver,
                     int(statistics.median(times)))
                )

    def _dump(path: str, header: Sequence[str], data: Sequence[tuple]) -> None:
        stdout = contextlib.nullcontext(sys.stdout)
        with stdout if path == "-" else open(path, "w", newline="") as out:
            w = _csv.writer(out)
            w.writerow(header)
            w.writerows(data)

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
    q.set_defaults(func=_cmd_oracle_kis)
    q = osub.add_parser("csp", help="exhaustive weight-k assignment scan")
    _add_solve_flags(q, with_count=False)
    q.set_defaults(func=_cmd_oracle_csp)

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
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:  # HgrError, CspParseError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
