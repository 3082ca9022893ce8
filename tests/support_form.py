"""Definitional reference for the k-IS form of a downward-closed leaf.

`sparsekis.csp._read` reads every table of a 0-valid leaf through one
cached reading per function, and `solve_csp` hands a higher-arity leaf
with no implication and no unread table to `kis._decide` on what it
read.  This builds the same k-IS form straight from each constraint's
minimal violating supports, dropping the pair rows that touch a pinned
variable, kept here so tests can pin the reader without sharing its
code.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from sparsekis.csp import _Leaf, min_violations
from sparsekis.hypergraph import _mask


def support_form(leaf: _Leaf) -> Optional[tuple[list[int], int, list[int]]]:
    """A 0-valid leaf whose constraints are all downward closed as k-IS:
    the pair rows, alive mask and large-edge masks of the hypergraph of
    the constraints' minimal violating supports, in `kis._decide`'s
    form; None when some constraint is not downward closed.

    One-vertex supports leave `alive`; two-vertex supports join the pair
    rows; distinct supports of 3..k vertices inside `alive` are the
    large edges.  Larger ones fit in no k-set.
    """
    shapes: dict[int, Optional[list[tuple[int, itemgetter]]]] = {}
    dead = 0
    pairs: list[tuple[int, int]] = []
    big: dict[int, None] = {}
    k = leaf.k
    for f, vs in leaf.constraints:
        if id(f) not in shapes:
            bad = min_violations(f)
            shapes[id(f)] = None if bad is None else [
                (j.bit_count(), itemgetter(*(p for p in range(f.arity) if j >> p & 1)))
                for j in bad
            ]
        sups = shapes[id(f)]
        if sups is None:
            return None
        for size, get in sups:
            if size == 1:
                dead |= 1 << (get(vs) - 1)
            elif size == 2:
                pairs.append(get(vs))
            elif size <= k:
                big[_mask(get(vs))] = None
    rows = [0] * leaf.n
    for u, v in pairs:
        if not (dead >> (u - 1) & 1 or dead >> (v - 1) & 1):
            rows[u - 1] |= 1 << (v - 1)
            rows[v - 1] |= 1 << (u - 1)
    return rows, leaf.alive & ~dead, [m for m in big if not m & dead]
