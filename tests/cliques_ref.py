"""Definitional reference for the parts of the clique engine.

`cliques._cliques_of_size` grows all cliques of one size at once, as
numpy arrays over the boolean matrix of the rows inside `alive`.
`cliques_of_size` here is the recursive enumeration on bitmasks that it
replaced, kept so tests can pin the parts (their order, vertices and
common neighbours) and the k-clique counts without sharing the engine's
code.
"""

from __future__ import annotations

from typing import Sequence


def cliques_of_size(
    rows: Sequence[int], alive: int, size: int
) -> tuple[list[int], list[int]]:
    """Vertex bitmasks of all size-cliques inside `alive`, in
    lexicographic order of their sorted vertices, with their
    common-neighbour masks (also inside `alive`).

    rows[v - 1] is vertex v's neighbour bitmask (bit u - 1 for vertex u).
    """
    masks: list[int] = []
    commons: list[int] = []

    def rec(mask: int, common: int, last: int, depth: int) -> None:
        if depth == size:
            masks.append(mask)
            commons.append(common)
            return
        cand = common & ~((1 << last) - 1)
        while cand:
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length()
            rec(mask | bit, common & rows[v - 1], v, depth + 1)

    rec(0, alive, 0, 0)
    return masks, commons


def complement_rows(rows: Sequence[int], alive: int) -> list[int]:
    """Rows of the complement graph inside `alive`, without loops."""
    return [alive & ~r & ~(1 << i) for i, r in enumerate(rows)]
