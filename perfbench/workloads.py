"""The benchmark's workloads: pools of seeded instances, the timed call, and the checks.

A pool is a list of `Case`s built from the seed.  The timed loop walks
the pool in order, again and again, and hands each call a freshly
relabelled copy of the case, so no two calls see the same object but
every answer is known from the pool instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

import check
import instances as inst


@dataclass(frozen=True)
class Case:
    kind: str
    raw: tuple
    k: int
    # True when the instance is satisfiable by construction; None when
    # only a check can tell.
    planted: Optional[bool] = None


@dataclass
class Answer:
    value: object  # count, (yes, witness) or (satisfiable, assignment)
    seconds: float  # the timed call, which gives the latency
    count_seconds: float = 0.0  # kis-witness only: the count on the same instance
    count: Optional[int] = None


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


class IeCount:
    """count_k_is_mixed(H, 5), n=40, 60 pairs, 400 triples."""

    name = "ie-count"
    n, pairs, triples, k, pool_size = 40, 60, 400, 5, 25
    group = 1  # calls per latency sample

    def make_pool(self, seed: int) -> list[Case]:
        rng = _rng(seed, self.name)
        return [
            Case(self.name, inst.random_hypergraph(rng, self.n, {2: self.pairs, 3: self.triples}), self.k)
            for _ in range(self.pool_size)
        ]

    relabel = staticmethod(inst.relabel_hypergraph)
    build = staticmethod(inst.to_hypergraph)

    def call(self, sk, obj, case: Case) -> Answer:
        t0 = perf_counter()
        c = sk.count_k_is_mixed(obj, case.k)
        return Answer(c, perf_counter() - t0)

    def reference(self, case: Case) -> int:
        return check.count_k_is(case.raw, case.k)

    def oracle_subset(self, pool: list[Case]) -> list[int]:
        # One exhaustive count takes seconds to minutes, so only the
        # first pool instance of each run goes to the oracle.
        return [0]

    def oracle(self, sk, obj, case: Case) -> int:
        return sk.brute_count_k_is(obj, case.k)

    def verify(self, case: Case, raw, ans: Answer):
        """(whether any witness is valid, the answer to compare with the reference)."""
        return True, ans.value

    def matches(self, got, expected) -> bool:
        return got == expected


class KisWitness(IeCount):
    """decide_k_is(H, 6, want_witness=True), n=45, 380 pairs, 20 triples,
    plus count_k_is_mixed on the same instance for the witness/count ratio."""

    name = "kis-witness"
    n, pairs, triples, k, pool_size = 45, 380, 20, 6, 25

    def call(self, sk, obj, case: Case) -> Answer:
        t0 = perf_counter()
        yes, witness = sk.decide_k_is(obj, case.k, want_witness=True)
        t1 = perf_counter()
        c = sk.count_k_is_mixed(obj, case.k)
        t2 = perf_counter()
        return Answer((yes, witness), t1 - t0, t2 - t1, c)

    def oracle_subset(self, pool: list[Case]) -> list[int]:
        # The oracle scans C(45, 6) = 8.1M subsets, over a minute per
        # count, so here the counts rest on check.count_k_is alone (which
        # the benchmark's tests compare with the oracle).
        return []

    def verify(self, case: Case, raw, ans: Answer):
        yes, witness = ans.value
        ok = check.witness_ok(raw, case.k, witness) if yes else witness is None
        return ok, (ans.count, yes)

    def matches(self, got, expected) -> bool:
        count, yes = got
        return count == expected and yes == (expected > 0)


# One kind per solve_csp route: (kind, family, n, m, k).  Every kind is
# planted (satisfiable by construction) except "bb-or2-no", which holds
# k + 1 disjoint OR2 pairs and so needs k + 1 true variables: a NO that
# branch-and-bound has to explore.  It is kept at n=20 so the oracle can
# confirm it.
CSP_KINDS = (
    ("free-variables", ("nand2",), 2000, 2000 // (2 * 4) - 2, 4),
    ("sparse-greedy", ("nand3",), 8192, 8192 // 6, 3),
    ("kis-turan", ("nand2",), 400, 400, 5),
    ("kis-decide", ("nand2",), 40, 300, 5),
    ("subexponential", ("impl", "nor2"), 600, 900, 25),
    ("linear", ("eq2",), 300, 200, 40),
    ("clique-nand-impl", ("nand2", "impl"), 80, 200, 6),
    ("bb-or2", ("nand2", "or2"), 60, 20, 8),
    ("exhaustive-fallback", ("nand3",), 20, 500, 5),
)
BB_NO = ("bb-or2-no", ("nand2", "or2"), 20, 20, 8)


def no_instance(rng: random.Random, n: int, family, m: int, k: int):
    """k + 1 disjoint OR2 pairs, then random constraints up to m."""
    vs = rng.sample(range(1, n + 1), 2 * (k + 1))
    forced = tuple(
        ("or2", inst.TABLES["or2"], (vs[2 * i], vs[2 * i + 1])) for i in range(k + 1)
    )
    _, rest = inst.random_csp(rng, n, family, m - len(forced))
    return n, forced + rest


class CspRoutes:
    """solve_csp over a fixed rotation of one instance kind per route.

    A latency sample is one round: the summed time of one call per kind.
    """

    name = "csp-routes"
    rounds = 8  # pool = rounds x one case per kind, kinds interleaved
    group = len(CSP_KINDS)

    def make_pool(self, seed: int) -> list[Case]:
        rng = _rng(seed, self.name)
        pool = []
        for r in range(self.rounds):
            for kind, family, n, m, k in CSP_KINDS:
                if kind == "bb-or2" and r % 2:
                    kind, family, n, m, k = BB_NO
                    pool.append(Case(kind, no_instance(rng, n, family, m, k), k, None))
                    continue
                planted = set(rng.sample(range(1, n + 1), k))
                pool.append(Case(kind, inst.random_csp(rng, n, family, m, planted), k, True))
        return pool

    relabel = staticmethod(inst.relabel_csp)
    build = staticmethod(inst.to_csp)

    def call(self, sk, obj, case: Case) -> Answer:
        t0 = perf_counter()
        res = sk.solve_csp(obj, case.k)
        return Answer((res.satisfiable, res.assignment), perf_counter() - t0)

    def reference(self, case: Case) -> Optional[bool]:
        # Planted cases are YES by construction; the rest go to the oracle.
        return True if case.planted else None

    def oracle_subset(self, pool: list[Case]) -> list[int]:
        return [i for i, case in enumerate(pool) if not case.planted]

    def oracle(self, sk, obj, case: Case) -> bool:
        return sk.brute_solve_csp(obj, case.k) is not None

    def verify(self, case: Case, raw, ans: Answer):
        sat, assignment = ans.value
        ok = check.assignment_ok(raw, case.k, assignment) if sat else assignment is None
        return ok, sat

    def matches(self, got, expected) -> bool:
        return got == expected


WORKLOADS = {w.name: w for w in (IeCount(), KisWitness(), CspRoutes())}
