"""Run one benchmark workload against the sparsekis sources in ./src.

    python3 perfbench/run.py --workload ie-count --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs a fixed list of calls
twice, untraced and then traced, and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run's settings and environment.  Every answer is checked
(see check.py and workloads.py); a wrong answer makes ``correct`` false
and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# One BLAS thread: a single-threaded closed loop on a shared machine.
# Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy  # noqa: E402

import tracing  # noqa: E402
from instances import permutation  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
# p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100
CACHE_DIR = Path(".perfbench_cache")


def _import_sparsekis(src: Path):
    """Import sparsekis afresh from `src`, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "sparsekis" or k.startswith("sparsekis.")]:
        del sys.modules[key]
    sk = importlib.import_module("sparsekis")
    if Path(sk.__file__).resolve().parent != (src / "sparsekis").resolve():
        raise RuntimeError(f"sparsekis imported from {sk.__file__}, not from {src}")
    return sk


def setup(wl, seed: int, src: Path):
    """Import, build the pool, warm up; repeated, with the median time kept.

    The warm-up is one sample's calls: one call, or one per kind on
    csp-routes, so every route's code has run once.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        sk = _import_sparsekis(src)
        pool = wl.make_pool(seed)
        objs = [wl.build(sk, c.raw) for c in pool]
        for obj, case in zip(objs[: wl.group], pool):
            wl.call(sk, obj, case)
        times.append(perf_counter() - t0)
    return sk, pool, objs, statistics.median(times)


def _oracle_cached(wl, sk, obj, case):
    """The oracle's answer for `case`, cached on disk by instance digest."""
    key = hashlib.sha256(repr((wl.name, case.k, case.raw)).encode()).hexdigest()
    path = CACHE_DIR / f"{key}.json"
    if path.is_file():
        return json.loads(path.read_text())["answer"]
    answer = wl.oracle(sk, obj, case)
    CACHE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps({"workload": wl.name, "answer": answer}))
    return answer


def references(wl, sk, pool, objs) -> tuple[list, list[str]]:
    """Expected answer per pool case, and any disagreement between checks."""
    expected = [wl.reference(c) for c in pool]
    problems = []
    for i in wl.oracle_subset(pool):
        got = _oracle_cached(wl, sk, objs[i], pool[i])
        if expected[i] is not None and expected[i] != got:
            problems.append(f"case {i}: benchmark reference {expected[i]} != oracle {got}")
        expected[i] = got
    return expected, problems


@dataclass
class Record:
    """One checked call: pool index, timings, and the answer to compare."""

    index: int
    seconds: float
    count_seconds: float
    got: object
    valid: bool  # the witness or assignment passed check.py


def run_calls(wl, sk, pool, plan, tracer=None):
    """Make each planned call (pool index, relabelling); return its records.

    With a tracer, each instance is also solved a second time, traced,
    right after its untraced call; those records come back separately.
    """
    plain, traced = [], []
    failed = 0

    def one(i, raw, into):
        ans = wl.call(sk, wl.build(sk, raw), pool[i])
        valid, got = wl.verify(pool[i], raw, ans)
        into.append(Record(i, ans.seconds, ans.count_seconds, got, valid))

    for i, perm in plan:
        raw = wl.relabel(pool[i].raw, perm)
        try:
            one(i, raw, plain)
            if tracer is not None:
                tracer.install()
                try:
                    one(i, raw, traced)
                finally:
                    tracer.uninstall()
        except sk.ResourceLimit:
            failed += 1
    return plain, traced, failed


def timed_loop(wl, sk, pool, seed: int, seconds: float):
    """Closed loop, one caller: whole passes over the pool until time and samples suffice."""
    rng = random.Random(f"{seed}:relabel")
    records = []
    failed = attempted = 0
    start = perf_counter()
    while perf_counter() - start < seconds or attempted < MIN_SAMPLES * wl.group:
        plan = [(i, permutation(rng, c.raw[0])) for i, c in enumerate(pool)]
        got, _, f = run_calls(wl, sk, pool, plan)
        records += got
        failed += f
        attempted += len(plan)
    return records, attempted, failed


def _check_all(wl, pool, expected, records, problems):
    for r in records:
        if not r.valid or not wl.matches(r.got, expected[r.index]):
            problems.append(f"wrong answer on case {r.index} ({pool[r.index].kind})")
    return problems


def _call_seconds(records) -> float:
    return sum(r.seconds + r.count_seconds for r in records)


def _median_ratio(records):
    ratios = [r.seconds / r.count_seconds for r in records if r.count_seconds > 0]
    return statistics.median(ratios) if ratios else 0.0


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "processes": 1,
    }


def end_to_end(wl, sk, pool, objs, setup_s, args):
    records, attempted, failed = timed_loop(wl, sk, pool, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calls = [r.seconds for r in records]
    # A sample is `group` consecutive calls (one round on csp-routes).
    lat = sorted(sum(calls[j:j + wl.group]) for j in range(0, len(calls) - wl.group + 1, wl.group))
    expected, problems = references(wl, sk, pool, objs)
    problems = _check_all(wl, pool, expected, records, problems)
    p90 = statistics.quantiles(lat, n=10)[-1]
    info = {
        "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if x > p90),
        "fail_ratio": failed / attempted,
        "witness_over_count": _median_ratio(records),  # 0 unless kis-witness
    }
    metrics = {
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (p90, "s"),
        "instances_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, info, attempted, failed, problems


def traced(wl, sk, pool, objs, args):
    rng = random.Random(f"{args.seed}:trace")
    plan = [(i, permutation(rng, c.raw[0])) for i, c in enumerate(pool)]
    tracer = tracing.Tracer()
    plain, spans_run, failed = run_calls(wl, sk, pool, plan, tracer)
    untraced_s, traced_s = _call_seconds(plain), _call_seconds(spans_run)
    expected, problems = references(wl, sk, pool, objs)
    problems = _check_all(wl, pool, expected, plain + spans_run, problems)
    layer = tracing.layer_metrics(tracer.spans)
    layer["kis.witness_over_count"] = _median_ratio(plain)
    layer["trace_overhead_ratio"] = traced_s / untraced_s
    metrics = {name: (value, tracing.unit_of(name)) for name, value in layer.items()}
    info = {"calls_per_pass": len(plan), "untraced_s": untraced_s, "traced_s": traced_s,
            "not_traced": tracer.missing}
    return metrics, info, len(plan), failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = Path("src").resolve()
    if not (src / "sparsekis" / "__init__.py").is_file():
        print("no sparsekis sources under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    wl = WORKLOADS[args.workload]
    sk, pool, objs, setup_s = setup(wl, args.seed, src)
    if args.trace:
        metrics, info, attempted, failed, problems = traced(wl, sk, pool, objs, args)
    else:
        metrics, info, attempted, failed, problems = end_to_end(wl, sk, pool, objs, setup_s, args)
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"workload": wl.name, "seed": args.seed, "trace": args.trace,
                      "pool": len(pool), **info, "env": environment()}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
