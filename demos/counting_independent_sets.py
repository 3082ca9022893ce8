"""Count k-independent sets with both public counters and the oracle,
and watch the answers agree.

An independent set here is a vertex subset containing no edge of any
arity.  `count_k_is_hypergraph` and `count_k_is_mixed` run the same
count: an inclusion-exclusion correction over matchings of large edges
subtracted from a pair-edge-only count.  The oracle just scans every
k-subset.
"""

import random

from sparsekis import (
    Hypergraph,
    brute_count_k_is,
    count_invalid,
    count_k_is_hypergraph,
    count_k_is_mixed,
)

rng = random.Random(7)
n = 12
edges = set()
while len(edges) < 16:
    edges.add(frozenset(rng.sample(range(1, n + 1), 3)))
while len(edges) < 22:
    edges.add(frozenset(rng.sample(range(1, n + 1), rng.choice((2, 4)))))
H = Hypergraph(n, tuple(edges))

print(f"hypergraph: n={H.n}, per-arity edge counts {H.arity_counts}")
for k in (3, 4, 5, 6):
    a = count_k_is_hypergraph(H, k)
    b = count_k_is_mixed(H, k)
    c = brute_count_k_is(H, k)
    tag = "ok" if a == b == c else "MISMATCH"
    print(f"  k={k}: hypergraph={a}  mixed={b}  oracle={c}  [{tag}]")

# The correction term never depends on how the edge list is ordered.
shuffled = list(H.edges)
rng.shuffle(shuffled)
same = count_invalid(H, 5) == count_invalid(Hypergraph(n, tuple(shuffled)), 5)
print(f"edge-order invariance of the correction at k=5: {same}")
