"""Classify binary constraint families into hardness regimes.

A family's regime predicts which solver the dispatcher will lean on:
Linear families fall to equality components and a subset-sum over
their sizes, KIS behaves like hypergraph independent set, Clique
carries a weight offset from its cheapest satisfying row, and
Subexponential marks the implication-heavy middle ground.
"""

from sparsekis import EQ2, IMPL, NAND2, NOR2, OR2, classify_binary_family

FAMILIES = [
    ("exclusion only", (NAND2,)),
    ("implication only", (IMPL,)),
    ("equality only", (EQ2,)),
    ("exclusion + equality", (NAND2, EQ2)),
    ("exclusion + implication", (NAND2, IMPL)),
    ("implication + equality", (IMPL, EQ2)),
    ("disjunction only", (OR2,)),
    ("exclusion + disjunction", (NAND2, OR2)),
    ("joint denial only", (NOR2,)),
    ("exclusion + joint denial", (NAND2, NOR2)),
    ("equality + disjunction", (EQ2, OR2)),
    ("exclusion + implication + equality", (NAND2, IMPL, EQ2)),
]

width = max(len(label) for label, _ in FAMILIES)
for label, fam in FAMILIES:
    regime = classify_binary_family(fam)
    names = ", ".join(f.name for f in fam)
    print(f"{label:<{width}}  {{{names}}}  ->  {regime}")
