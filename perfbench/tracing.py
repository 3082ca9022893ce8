"""Spans around the calls into each layer, and the per-layer metrics drawn from them.

The tracer replaces a library function, in every ``sparsekis`` module
that holds it, with a wrapper that records a span (name, start, end,
parent, note) and then calls the original.  Callers that look the
function up by name therefore go through the wrapper; calls between
code inside one function body are not seen.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import re
import sys
from time import perf_counter


def _want_witness(args, kwargs, result):
    return bool(kwargs.get("want_witness", args[2] if len(args) > 2 else False))


def _hit(args, kwargs, result):
    return result is not None


def _route(args, kwargs, result):
    return result.route


def _size(args, kwargs, result):
    return len(result)


def _parts(args, kwargs, result):
    return len(result[0])


#: Traced functions, as "module.function" under sparsekis, with the note
#: each span keeps about its call.
TRACED = {
    "hypergraph.complement": None,
    "hypergraph.induced": None,
    "hypergraph.underlying_graph": None,
    "cliques.count_k_is": None,
    "cliques.count_k_cliques": None,
    "cliques._cliques_of_size": _parts,
    "cliques.count_triangles_tripartite": None,
    "kis.count_k_is_mixed": None,
    "kis.count_k_is_hypergraph": None,
    "kis.count_invalid": None,
    "kis.decide_k_is": _want_witness,
    "turan.find_k_is_sparse": _hit,
    "turan.sparse_csp_solve": _hit,
    "csp.solve_csp": _route,
    "csp.branch_and_bound": _size,
    "csp.preprocess_easy": None,
    "csp.impl_prune": None,
    "nand_impl.solve_nand_impl": None,
    "oracle.brute_solve_csp": None,
}

#: Every route string solve_csp returns, each with its own metric bucket.
ROUTES = (
    "budget exceeds variable count",
    "weight zero",
    "free variables",
    "sparse greedy",
    "exhaustive fallback",
    "regime Linear",
    "regime Subexponential",
    "regime KIS",
    "regime Clique(0)",
    "regime Clique(1)",
    "regime Clique(2)",
)


def route_metric(route: str) -> str:
    """Metric stem for a route: known routes by name, anything else as "other"."""
    if route not in ROUTES:
        return "csp.route.other"
    return "csp.route." + re.sub(r"[^A-Za-z0-9_.-]+", "_", route).strip("_")


class Tracer:
    """Records spans while installed; `uninstall` restores every original."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or -1, note].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "sparsekis" or key.startswith("sparsekis."))
        ]
        for name, note in TRACED.items():
            mod_name, attr = name.split(".")
            original = getattr(sys.modules.get("sparsekis." + mod_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, note)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics over one traced pass; zero where a layer never ran."""
    selfs = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, selfs):
        self_s[s[0]] = self_s.get(s[0], 0.0) + t
        calls[s[0]] = calls.get(s[0], 0) + 1

    def parent_name(s):
        return spans[s[3]][0] if s[3] >= 0 else None

    def noted(name):
        return [s[4] for s in spans if s[0] == name]

    def ratio(a, b):
        return a / b if b else 0.0

    witness_calls = {i for i, s in enumerate(spans) if s[0] == "kis.decide_k_is" and s[4]}
    m = {
        "kis.count_invalid.self_s": self_s.get("kis.count_invalid", 0.0),
        "kis.count_invalid.engine_calls": sum(
            1 for s in spans
            if s[0] in ("cliques.count_k_is", "kis.count_k_is_hypergraph")
            and parent_name(s) == "kis.count_invalid"
        ),
        "kis.count_k_is_mixed.calls_per_witness": ratio(
            sum(1 for s in spans if s[0] == "kis.count_k_is_mixed" and s[3] in witness_calls),
            len(witness_calls),
        ),
        "kis.decide_k_is.self_s": self_s.get("kis.decide_k_is", 0.0),
        "hypergraph.complement.self_s": self_s.get("hypergraph.complement", 0.0),
        "hypergraph.induced.self_s": self_s.get("hypergraph.induced", 0.0),
        "hypergraph.underlying_graph.self_s": self_s.get("hypergraph.underlying_graph", 0.0),
        "cliques.count_k_is.calls": calls.get("cliques.count_k_is", 0),
        "cliques.count_k_is.self_s": self_s.get("cliques.count_k_is", 0.0),
        "cliques.count_k_cliques.self_s": self_s.get("cliques.count_k_cliques", 0.0),
        "cliques.cliques_of_size.self_s": self_s.get("cliques._cliques_of_size", 0.0),
        "cliques.cliques_of_size.parts": sum(noted("cliques._cliques_of_size")),
        "cliques.count_triangles_tripartite.calls": calls.get("cliques.count_triangles_tripartite", 0),
        "cliques.count_triangles_tripartite.self_s": self_s.get("cliques.count_triangles_tripartite", 0.0),
        "csp.solve_csp.self_s": self_s.get("csp.solve_csp", 0.0),
        "csp.branch_and_bound.self_s": self_s.get("csp.branch_and_bound", 0.0),
        "csp.branch_and_bound.leaves": sum(noted("csp.branch_and_bound")),
        "csp.preprocess_easy.self_s": self_s.get("csp.preprocess_easy", 0.0),
        "csp.impl_prune.self_s": self_s.get("csp.impl_prune", 0.0),
        "nand_impl.solve_nand_impl.calls": calls.get("nand_impl.solve_nand_impl", 0),
        "nand_impl.solve_nand_impl.self_s": self_s.get("nand_impl.solve_nand_impl", 0.0),
        "oracle.brute_solve_csp.calls": calls.get("oracle.brute_solve_csp", 0),
        "oracle.brute_solve_csp.self_s": self_s.get("oracle.brute_solve_csp", 0.0),
    }
    for name in ("turan.find_k_is_sparse", "turan.sparse_csp_solve"):
        hits = noted(name)
        m[name + ".self_s"] = self_s.get(name, 0.0)
        m[name + ".hit_ratio"] = ratio(sum(hits), len(hits))
    for stem in sorted({route_metric(r) for r in ROUTES} | {"csp.route.other"}):
        m[stem + ".s"] = 0.0
        m[stem + ".count"] = 0
    for s in spans:
        if s[0] == "csp.solve_csp":
            stem = route_metric(s[4])
            m[stem + ".s"] += s[2] - s[1]
            m[stem + ".count"] += 1
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("self_s", ".s")):
        return "s"
    if name.endswith(("ratio", "_over_count", "per_witness")):
        return "ratio"
    return "count"
