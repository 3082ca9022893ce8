"""Boolean constraint satisfaction with a weight budget.

A constraint function is an explicit truth table over up to six Boolean
arguments; an instance applies such functions to tuples of distinct
variables, and the question is whether some assignment with exactly k
true variables satisfies every constraint.

The family of tables appearing in a binary instance determines how hard
that question is, and `classify_binary_family` sorts families into four
regimes (Linear, Subexponential, KIS, Clique).  The solver entry point
`solve_csp` routes instances accordingly.  Branch-and-bound (`_branch`)
sets a variable of the first all-false-violated constraint true, and
cuts a node when more variable-disjoint violated constraints remain than
its budget, since each needs a true variable of its own.  Its leaves are
0-valid: the all-false row satisfies every constraint left.  It walks
the tree on a stack of its own, as the closed-set search below does, so
a path thousands of variables deep needs no Python recursion, and it
raises ResourceLimit past SEARCH_STATE_CAP leaves.

One reader, `_read`, takes every 0-valid leaf into masks, from one
cached reading per table (`_reading`).  A table closed downward (NAND_r,
at-most-t-of-r, NOR, NOT: a row above a violating row violates too) is
its minimal violating supports: one-variable supports are pins,
two-variable ones NAND rows, larger ones large edges.  IMPL and EQ, the
only other 0-valid binary tables, are the clauses of their violated
rows: row 1 (u true, v false) means u -> v, row 2 means v -> u.  Any
other table is left unread.  `classify_binary_family` sorts a family by
the same reading.  A leaf's reading (`_Masks`) is its successor,
predecessor and NAND rows, its large edges and first unread table, and
its alive mask, already without the pins and all their ancestors, with
its forced variables and budget.

`_solve_leaf` reads each leaf once and answers from the reading:
equality components of a Linear family feed a subset-sum; an
implication on an alive variable is pruned by descendant sets from one
pass over strongly connected components, which then drive the
closed-set search, cutting NAND pairs and large edges alike; anything
else is k-IS on the NAND rows and large edges (`kis._decide`).  Past the
search's state cap on a Clique leaf the nand_impl pipeline takes the
reading itself as its branch, with the alive mask pruned.  Higher-arity
leaves first go to the sparse greedy `_greedy`, then to the leaf solver
under the route name "regime KIS"; the capped exhaustive scan
`_exhaustive` answers only the leaves with an unread table, or where the
search or k-IS meets a resource limit.

`solve_csp` keeps the caller's variable ids from entry to verdict.  A
branch or leaf is a `_Leaf`: a plain list of (function, variables)
constraints, a residual budget, and masks of the alive (not yet fixed)
and forced-true variables.  `_fix` specialises only the constraints
that hold a fixed variable; nothing is renumbered and no `CspInstance`
is built or validated per step.  It runs when branching sets a variable
true, and in the public `preprocess_easy` and `impl_prune`; the leaf
solvers, the nand_impl pipeline included, fix variables on the masks
`_read` gives.  Every leaf solver answers with the mask of a true set
(forced variables included) or None, and `_verify` checks each YES
against the caller's instance once, whether or not a witness is wanted.
A checked instance is built only in the public `branch_and_bound`,
`preprocess_easy` and `impl_prune`, which wrap the same core.

Descendant and ancestor sets are bitmasks laid out as the NAND rows, so
the NAND neighbours of a set are one `_block` over its mask.  The table
facts `specialize`, `forced_false_positions`, `u_min`, `min_violations`
and `_reading` are cached per function; the loops over a leaf's
constraints look each function object up by id, since a cache lookup
calls the function's Python-level hash and equality on every hit.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from math import comb
from operator import indexOf, itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import kis, nand_impl
from .errors import ResourceLimit, VerificationError
from .hypergraph import _block, _mask, _vertices

MAX_CSP_ARITY = 6

#: Hard cap on the leaves branch-and-bound builds, and on the states the
#: closed-set search visits on a leaf outside the Clique regime, before
#: giving up with ResourceLimit.  Read at call time.
SEARCH_STATE_CAP = 500_000

#: States the closed-set search visits on a NAND + implication leaf
#: before the nand_impl pipeline takes over.
NAND_IMPL_STATE_CAP = 20_000

#: Hard cap on assignments scanned by the exhaustive fallback inside
#: solve_csp for higher-arity instances.
FALLBACK_CAP = 20_000_000


@dataclass(frozen=True)
class ConstraintFunction:
    """Boolean function stored as a truth table.

    Table index j encodes the assignment where the argument at position p
    (1-based) takes bit (j >> (p - 1)) & 1, so position 1 is the least
    significant bit.
    """

    name: str
    arity: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.arity <= MAX_CSP_ARITY:
            raise ValueError(f"arity {self.arity} out of range 0..{MAX_CSP_ARITY}")
        object.__setattr__(self, "table", tuple(int(b) for b in self.table))
        if len(self.table) != 1 << self.arity:
            raise ValueError(
                f"table length {len(self.table)} != 2^{self.arity} for {self.name!r}"
            )
        if any(b not in (0, 1) for b in self.table):
            raise ValueError(f"non-bit entry in table of {self.name!r}")
        object.__setattr__(self, "_hash", hash(self.table))

    # The table facts are cached per function, and instances built apart
    # hold equal functions that are distinct objects, so every lookup
    # hashes one and compares it with the other.
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ConstraintFunction):
            return NotImplemented
        return self.table == other.table and self.name == other.name

    def __call__(self, bits: Sequence[int]) -> int:
        j = 0
        for p, b in enumerate(bits):
            j |= (b & 1) << p
        return self.table[j]

    @cached_property
    def is_constant_true(self) -> bool:
        return all(self.table)

    @cached_property
    def is_constant_false(self) -> bool:
        return not any(self.table)


@cache
def u_min(f: ConstraintFunction) -> int:
    """Minimum weight of a violating assignment; arity+1 if none violates;
    worked out once per function."""
    best = f.arity + 1
    for j, b in enumerate(f.table):
        if not b:
            best = min(best, j.bit_count())
    return best


@cache
def min_violations(f: ConstraintFunction) -> Optional[tuple[int, ...]]:
    """The minimal violating rows of f, or None when f is not downward
    closed (some row above a violating row satisfies it); worked out once
    per function.

    A true set satisfies a downward-closed constraint exactly when it
    holds the variables of none of these rows, its violating supports.
    """
    bad = [j for j, ok in enumerate(f.table) if not ok]
    if any(f.table[j | 1 << p] for j in bad for p in range(f.arity)):
        return None
    return tuple(
        j for j in bad if all(f.table[j ^ 1 << p] for p in range(f.arity) if j >> p & 1)
    )


def s_min(f: ConstraintFunction) -> int:
    """Minimum weight of a satisfying assignment; arity+1 if none satisfies."""
    best = f.arity + 1
    for j, b in enumerate(f.table):
        if b:
            best = min(best, j.bit_count())
    return best


def _permute_row(j: int, perm: Sequence[int]) -> int:
    # perm[p] = source position whose bit lands at position p (0-based).
    out = 0
    for p, src in enumerate(perm):
        out |= (j >> src & 1) << p
    return out


def permute_arguments(f: ConstraintFunction, perm: Sequence[int]) -> ConstraintFunction:
    """Table of f with arguments reordered; perm maps new position -> old."""
    if sorted(perm) != list(range(f.arity)):
        raise ValueError(f"{tuple(perm)} is not a permutation of 0..{f.arity - 1}")
    table = tuple(f.table[_permute_row(j, perm)] for j in range(len(f.table)))
    return ConstraintFunction(f.name, f.arity, table)


def symmetrize(f: ConstraintFunction) -> ConstraintFunction:
    """Conjunction of f over all argument orders; a symmetric function.

    Returns f itself when it is already symmetric.
    """
    table = list(f.table)
    for perm in itertools.permutations(range(f.arity)):
        for j in range(len(table)):
            table[j] &= f.table[_permute_row(j, perm)]
    if tuple(table) == f.table:
        return f
    return ConstraintFunction(f"sym_{f.name}", f.arity, tuple(table))


@cache
def specialize(f: ConstraintFunction, position: int, value: int) -> ConstraintFunction:
    """Fix the argument at 1-based `position` to `value`; arity drops by 1.

    The result can be a constant (arity 0, one-row table); callers drop
    constant-true results and treat constant-false as an infeasible branch.
    Worked out once per (function, position, value): the function's name
    is part of the key, so a cached result keeps its exact derived name.
    """
    if not 1 <= position <= f.arity:
        raise ValueError(f"position {position} out of range 1..{f.arity}")
    p = position - 1
    low = (1 << p) - 1
    table = []
    for j in range(1 << (f.arity - 1)):
        row = (j & low) | ((j & ~low) << 1) | ((value & 1) << p)
        table.append(f.table[row])
    return ConstraintFunction(f"{f.name}|{position}={value & 1}", f.arity - 1, tuple(table))


# Canonical binary/unary tables (index j=0 is the all-false row).
NAND2 = ConstraintFunction("nand2", 2, (1, 1, 1, 0))
IMPL = ConstraintFunction("impl", 2, (1, 0, 1, 1))  # position 1 implies position 2
EQ2 = ConstraintFunction("eq2", 2, (1, 0, 0, 1))
OR2 = ConstraintFunction("or2", 2, (0, 1, 1, 1))
NOR2 = ConstraintFunction("nor2", 2, (1, 0, 0, 0))
NOT1 = ConstraintFunction("not1", 1, (1, 0))
NEVER1 = ConstraintFunction("never1", 1, (0, 0))

@cache
def forced_false_positions(f: ConstraintFunction) -> tuple[int, ...]:
    """1-based positions that are 0 in every satisfying row (none if f is
    constant-false); worked out once per function."""
    if f.is_constant_false:
        return ()
    out = []
    for p in range(f.arity):
        if all(not b or not (j >> p & 1) for j, b in enumerate(f.table)):
            out.append(p + 1)
    return tuple(out)


@cache
def _reading(f: ConstraintFunction) -> tuple[int, tuple]:
    """How `_read` takes f, as (kind, parts); worked out once per function.

    A 0-valid table closed downward (`min_violations`) is its violating
    supports: kind 4 for NAND2, kind 0 with the positions of the
    one-variable supports (pins) when there are no others, else kind -2
    with each support's size and a getter of its variables.  IMPL and
    EQ, the other 0-valid binary tables, are the bits of their violated
    rows (1: u -> v, 2: v -> u, 3: both).  Any other table is kind -1,
    not read.  Positions are 0-based.
    """
    if not f.table[0]:
        return -1, ()
    bad = min_violations(f)
    if bad is None:
        if f.arity == 2:
            return (not f.table[1]) | (not f.table[2]) << 1, ()
        return -1, ()
    sups = [tuple(p for p in range(f.arity) if j >> p & 1) for j in bad]
    if all(len(s) == 1 for s in sups):
        return 0, tuple(s[0] for s in sups)
    if f.arity == 2:
        return 4, ()
    return -2, tuple((len(s), itemgetter(*s)) for s in sups)


Constraint = tuple[ConstraintFunction, tuple[int, ...]]


@dataclass(frozen=True)
class CspInstance:
    """Variables 1..n plus (function, distinct-variable-tuple) constraints.

    `labels` maps the current variable ids back to the ids of whatever
    instance a chain of reductions started from (identity when None);
    0 marks a synthetic filler variable with no original counterpart.
    """

    n: int
    constraints: tuple[Constraint, ...]
    labels: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative variable count {self.n}")
        object.__setattr__(
            self,
            "constraints",
            tuple((f, tuple(vs)) for f, vs in self.constraints),
        )
        for f, vs in self.constraints:
            if f.arity < 1:
                raise ValueError(f"constraint on {f.name!r} has arity {f.arity} < 1")
            if f.is_constant_true:
                raise ValueError(f"constant-true function {f.name!r} used in a constraint")
            if len(vs) != f.arity:
                raise ValueError(f"{f.name!r} expects {f.arity} variables, got {len(vs)}")
            if len(set(vs)) != len(vs):
                raise ValueError(f"repeated variable in constraint {f.name!r}{vs}")
            for v in vs:
                if not 1 <= v <= self.n:
                    raise ValueError(f"variable {v} out of range 1..{self.n}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length must equal n")

    @property
    def m(self) -> int:
        return len(self.constraints)

    @cached_property
    def functions(self) -> tuple[ConstraintFunction, ...]:
        """Distinct functions by table, in first-use order."""
        # A table's length fixes its arity.  Constraints share function
        # objects, so each object's table is looked at once.
        seen: dict[tuple[int, ...], ConstraintFunction] = {}
        for f in {id(f): f for f, _ in self.constraints}.values():
            seen.setdefault(f.table, f)
        return tuple(seen.values())

    @cached_property
    def max_arity(self) -> int:
        return max((f.arity for f in self.functions), default=0)

    def label_of(self, v: int) -> int:
        return v if self.labels is None else self.labels[v - 1]

    def satisfied_by(self, true_vars: Iterable[int]) -> bool:
        """Evaluate every constraint under the given set of true variables."""
        return _satisfied(self.constraints, true_vars)


def _satisfied(constraints: Iterable[Constraint], true_vars: Iterable[int]) -> bool:
    t = set(true_vars)
    for f, vs in constraints:
        # A constraint with no true variable reads its all-false row.
        if t.isdisjoint(vs):
            if not f.table[0]:
                return False
            continue
        j = 0
        for p, v in enumerate(vs):
            if v in t:
                j |= 1 << p
        if not f.table[j]:
            return False
    return True


class CspParseError(ValueError):
    """Base class for CSP input errors; knows its 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedCspHeader(CspParseError):
    pass


class BadFunctionDecl(CspParseError):
    pass


class BadConstraintLine(CspParseError):
    pass


def parse_csp(text: str) -> CspInstance:
    """Parse the CSP text format.

    Lines: `#` comments, one `p csp <n> <m>` header, function
    declarations `f <name> <arity> <bits>` (bits indexed with position 1
    as the least-significant bit), and m constraint lines
    `c <name> <v1> ... <vr>` over distinct 1-based variables.
    """
    n = -1
    m = -1
    header_line = 0
    funcs: dict[str, ConstraintFunction] = {}
    constraints: list[Constraint] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n >= 0:
                raise MalformedCspHeader(line_no, "second header line")
            if len(fields) != 4 or fields[1] != "csp":
                raise MalformedCspHeader(line_no, f"expected 'p csp <n> <m>', got {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise MalformedCspHeader(line_no, f"non-integer counts in {line!r}") from None
            if n < 0 or m < 0:
                raise MalformedCspHeader(line_no, f"negative counts in {line!r}")
            header_line = line_no
        elif fields[0] == "f":
            if len(fields) != 4:
                raise BadFunctionDecl(line_no, f"expected 'f <name> <arity> <bits>', got {line!r}")
            name = fields[1]
            if name in funcs:
                raise BadFunctionDecl(line_no, f"function {name!r} declared twice")
            try:
                arity = int(fields[2])
            except ValueError:
                raise BadFunctionDecl(line_no, f"non-integer arity in {line!r}") from None
            if not 1 <= arity <= MAX_CSP_ARITY:
                raise BadFunctionDecl(line_no, f"arity {arity} out of range 1..{MAX_CSP_ARITY}")
            bits = fields[3]
            if len(bits) != 1 << arity or set(bits) - {"0", "1"}:
                raise BadFunctionDecl(line_no, f"need {1 << arity} bits of 0/1, got {bits!r}")
            try:
                funcs[name] = ConstraintFunction(name, arity, tuple(int(b) for b in bits))
            except ValueError as exc:
                raise BadFunctionDecl(line_no, str(exc)) from None
        elif fields[0] == "c":
            if n < 0:
                raise MalformedCspHeader(line_no, "constraint line before 'p csp' header")
            if len(fields) < 3:
                raise BadConstraintLine(line_no, f"expected 'c <name> <vars...>', got {line!r}")
            name = fields[1]
            if name not in funcs:
                raise BadConstraintLine(line_no, f"unknown function {name!r}")
            f = funcs[name]
            if f.is_constant_true:
                raise BadConstraintLine(line_no, f"constant-true function {name!r} used")
            try:
                vs = tuple(int(x) for x in fields[2:])
            except ValueError:
                raise BadConstraintLine(line_no, f"non-integer variable in {line!r}") from None
            if len(vs) != f.arity:
                raise BadConstraintLine(line_no, f"{name!r} expects {f.arity} variables, got {len(vs)}")
            if len(set(vs)) != len(vs):
                raise BadConstraintLine(line_no, f"repeated variable in {line!r}")
            for v in vs:
                if not 1 <= v <= n:
                    raise BadConstraintLine(line_no, f"variable {v} out of range 1..{n}")
            constraints.append((f, vs))
        else:
            raise BadConstraintLine(line_no, f"unrecognized line {line!r}")
    if n < 0:
        raise MalformedCspHeader(0, "missing 'p csp' header")
    if len(constraints) != m:
        raise MalformedCspHeader(
            header_line, f"header declares {m} constraints, file has {len(constraints)}"
        )
    return CspInstance(n, tuple(constraints))


def format_csp(phi: CspInstance, comments: Sequence[str] = ()) -> str:
    """Render an instance to the CSP text format, one `f` line per distinct table."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"p csp {phi.n} {phi.m}")
    by_table: dict[tuple[int, tuple[int, ...]], str] = {}
    names_used: set[str] = set()
    for f in phi.functions:
        name = f.name
        while name in names_used:
            name += "_"
        names_used.add(name)
        by_table[(f.arity, f.table)] = name
        lines.append(f"f {name} {f.arity} " + "".join(str(b) for b in f.table))
    for f, vs in phi.constraints:
        lines.append(f"c {by_table[(f.arity, f.table)]} " + " ".join(str(v) for v in vs))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Regime:
    """Hardness regime of a binary constraint family."""

    kind: str  # "Linear" | "Subexponential" | "KIS" | "Clique"
    offset: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("Linear", "Subexponential", "KIS", "Clique"):
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if (self.offset is not None) != (self.kind == "Clique"):
            raise ValueError("offset is present exactly for the Clique regime")

    def __str__(self) -> str:
        return f"Clique({self.offset})" if self.kind == "Clique" else self.kind


def classify_binary_family(funcs: Iterable[ConstraintFunction]) -> Regime:
    """Sort a family of arity <= 2 functions into its hardness regime.

    Functions that only pin variables false (NOR, NOT and their padded
    forms) never influence the regime and are ignored.  With a NAND
    present, any other surviving function tips the family into the
    Clique regime with offset min s_min over those survivors; NAND alone
    is the KIS regime; an implication without NAND is Subexponential;
    anything else is Linear.  Each table is taken as `_read` takes it
    (`_reading`).
    """
    family = list(funcs)
    for f in family:
        if f.arity > 2:
            raise ValueError(f"non-binary function {f.name!r} (arity {f.arity})")
    # Kind 0 only pins (or reads nothing), 4 is NAND2, 1 and 2 are IMPL.
    kinds = {f: _reading(f)[0] for f in family if not f.is_constant_false}
    rest = [f for f, kind in kinds.items() if kind not in (0, 4)]
    if 4 in kinds.values():
        if not rest:
            return Regime("KIS")
        return Regime("Clique", offset=min(s_min(f) for f in rest))
    if 1 in kinds.values() or 2 in kinds.values():
        return Regime("Subexponential")
    return Regime("Linear")


class _Leaf(NamedTuple):
    """A branch or leaf of the solver, in the caller's own variable ids.

    `constraints` mention only variables in `alive` (bit v - 1 for
    variable v), the ones not fixed yet; `forced` holds the variables
    the branch set true and `k` the residual weight budget.  `n` is the
    caller's variable count, over which `_read` lays out its rows: a
    fixed variable just has no constraints left.
    """

    n: int
    constraints: Sequence[Constraint]
    alive: int
    k: int = 0
    forced: int = 0


def _root(phi: CspInstance, k: int) -> _Leaf:
    return _Leaf(phi.n, phi.constraints, (1 << phi.n) - 1, k)


def _fix(
    constraints: Sequence[Constraint], fixed: dict[int, int]
) -> Optional[list[Constraint]]:
    """Specialise the constraints that hold a variable of `fixed` at its
    bit; None on contradiction.

    Constant-true results are dropped; every other constraint keeps its
    place and its variable ids.
    """
    out: list[Constraint] = []
    untouched = fixed.keys().isdisjoint
    for c in constraints:
        f, vs = c
        if untouched(vs):
            out.append(c)
            continue
        g = f
        # Fix from the highest position down; removing a position only
        # shifts the positions above it, so lower ones keep their index.
        for p in range(len(vs), 0, -1):
            if vs[p - 1] in fixed:
                g = specialize(g, p, fixed[vs[p - 1]])
        if g.is_constant_false:
            return None
        if not g.is_constant_true:
            out.append((g, tuple(v for v in vs if v not in fixed)))
    return out


def _checked(phi: CspInstance, leaf: _Leaf) -> CspInstance:
    """The checked instance of a leaf of `phi`: phi itself when the leaf
    fixed nothing, else its alive variables renumbered 1.. in id order,
    labelled with their labels in phi."""
    if leaf.alive == (1 << phi.n) - 1:
        return phi
    kept = _vertices(leaf.alive)
    new_id = {v: i for i, v in enumerate(kept, 1)}
    return CspInstance(
        len(kept),
        tuple((f, tuple(new_id[v] for v in vs)) for f, vs in leaf.constraints),
        labels=tuple(phi.label_of(v) for v in kept),
    )


def _unsatisfiable(inst: CspInstance) -> CspInstance:
    """An explicitly never-satisfiable remnant of `inst`, keeping its
    labels; `inst` has a constraint, so it has a variable."""
    return CspInstance(inst.n, ((NEVER1, (1,)),), labels=inst.labels)


def preprocess_easy(phi: CspInstance, k: int) -> CspInstance:
    """Propagate away every variable some constraint pins false.

    Runs to a fixed point: variables at forced-false positions are set
    to 0, their constraints specialized, and newly created pinning
    constraints handled in turn.  Weight-k satisfiability is unchanged
    for every k.  A contradiction (some variable pinned false and forced
    true) leaves one never-satisfiable unary constraint behind.
    """
    leaf = _root(phi, k)
    while pinned := _mask(
        vs[p - 1] for f, vs in leaf.constraints for p in forced_false_positions(f)
    ):
        cons = _fix(leaf.constraints, dict.fromkeys(_vertices(pinned), 0))
        if cons is None:
            return _unsatisfiable(phi)
        leaf = leaf._replace(constraints=cons, alive=leaf.alive & ~pinned)
    return _checked(phi, leaf)


@dataclass(frozen=True)
class BranchLeaf:
    """One 0-valid leaf of the branch-and-bound tree.

    `forced_true` holds the original labels of the variables the branch
    set true; `k` is the residual weight budget.
    """

    instance: CspInstance
    k: int
    forced_true: frozenset[int]


def _first_violated(leaf: _Leaf) -> Optional[tuple[int, ...]]:
    """The variables of the leaf's first constraint that the all-false
    row violates; None when there is none, and () when no branch below
    can satisfy them all within the budget.

    Variable-disjoint violated constraints each need a true variable of
    their own, so a greedy packing of more than k of them cuts the node:
    no leaf lies below it."""
    first = None
    held = packed = 0
    for f, vs in leaf.constraints:
        if not f.table[0]:
            if first is None:
                first = vs
            m = _mask(vs)
            if not m & held:
                held |= m
                packed += 1
                if packed > leaf.k:
                    return ()
    return first


def _branch(phi: CspInstance, k: int) -> list[_Leaf]:
    """The 0-valid leaves of branching on all-false-violated constraints;
    ResourceLimit past SEARCH_STATE_CAP leaves."""
    root = _root(phi, k)
    if all(f.table[0] for f in phi.functions):
        return [root]
    leaves: list[_Leaf] = []
    # Depth first on an explicit stack: a node's children go on it in
    # reverse, so they come off in the order of its violated variables.
    stack = [root]
    while stack:
        leaf = stack.pop()
        viol = _first_violated(leaf)
        if viol is None:
            leaves.append(leaf)
            if len(leaves) > SEARCH_STATE_CAP:
                raise ResourceLimit("branch-and-bound leaves", len(leaves), SEARCH_STATE_CAP)
            continue
        children = []
        for v in viol:
            cons = _fix(leaf.constraints, {v: 1})
            if cons is not None:
                bit = 1 << (v - 1)
                children.append(
                    _Leaf(leaf.n, cons, leaf.alive & ~bit, leaf.k - 1, leaf.forced | bit)
                )
        stack.extend(reversed(children))
    return leaves


def branch_and_bound(phi: CspInstance, k: int) -> list[BranchLeaf]:
    """Branch on constraints the all-false assignment violates.

    Each branch sets one variable of the first such constraint true,
    specializes, and recurses with budget k-1; infeasible branches are
    pruned.  Leaves are 0-valid instances whose solutions (of the
    residual weights), unioned with the forced variables, are exactly
    the weight-k solutions of `phi`.  An empty list means UNSAT.  Raises
    ResourceLimit past SEARCH_STATE_CAP leaves.
    """
    return [
        BranchLeaf(
            _checked(phi, leaf),
            leaf.k,
            frozenset(phi.label_of(v) for v in _vertices(leaf.forced)),
        )
        for leaf in _branch(phi, k)
    ]


def _subset_sum_pick(weights: list[int], k: int) -> Optional[list[int]]:
    """Indices of weights summing to exactly k, respecting multiplicity; None if impossible."""
    # parent[t] = (t_prev, index used), filled in increasing target order.
    parent: list[Optional[tuple[int, int]]] = [None] * (k + 1)
    reachable = [False] * (k + 1)
    reachable[0] = True
    for idx, w in enumerate(weights):
        if w > k:
            continue
        for t in range(k, w - 1, -1):
            if not reachable[t] and reachable[t - w]:
                reachable[t] = True
                parent[t] = (t - w, idx)
    if not reachable[k]:
        return None
    out = []
    t = k
    while t:
        prev, idx = parent[t]  # type: ignore[misc]
        out.append(idx)
        t = prev
    return out


class _Masks(NamedTuple):
    """A 0-valid leaf read into masks by `_read`, in the caller's ids:
    the successor, predecessor and NAND rows (index v - 1, bit u - 1),
    the large edges that fit a solution and the first function not read
    (None when every table was read); then the alive variables, without
    the pinned ones and all their ancestors, the forced-true variables
    and the residual budget.  The nand_impl stages take it as a branch."""

    succ: list[int]
    pred: list[int]
    nand: list[int]
    big: list[int]
    unread: Optional[ConstraintFunction]
    alive: int
    forced: int
    k: int


def _read(leaf: _Leaf) -> _Masks:
    """The leaf's constraints as masks, read once.

    Each table is read as `_reading` gives it, one lookup by function
    object id: one-variable violating supports are pins, two-variable
    ones NAND rows, and the distinct larger ones large edges, as masks
    in first-seen order, kept when inside the final alive mask with at
    most k variables; implications join the successor and predecessor
    rows.  Equalities join both row lists at the end, one list when no
    one-way implication is read.  The pins and all their ancestors
    leave the leaf's alive mask: none of them is true in a solution.
    """
    n = leaf.n
    succ = [0] * n
    pred = [0] * n
    both = [0] * n
    nand = [0] * n
    big: dict[int, None] = {}
    pinned = 0
    unread = None
    facts: dict[int, tuple[int, tuple]] = {}
    for f, vs in leaf.constraints:
        fact = facts.get(id(f))
        if fact is None:
            fact = facts[id(f)] = _reading(f)
        kind, parts = fact
        if kind <= 0:
            if kind == 0:
                for p in parts:
                    pinned |= 1 << (vs[p] - 1)
            elif kind == -1:
                if unread is None:
                    unread = f
            else:
                for size, get in parts:
                    if size == 1:
                        pinned |= 1 << (get(vs) - 1)
                    elif size == 2:
                        u, v = get(vs)
                        nand[u - 1] |= 1 << (v - 1)
                        nand[v - 1] |= 1 << (u - 1)
                    else:
                        big[_mask(get(vs))] = None
            continue
        u, v = vs
        if kind == 4:
            nand[u - 1] |= 1 << (v - 1)
            nand[v - 1] |= 1 << (u - 1)
        elif kind == 3:
            both[u - 1] |= 1 << (v - 1)
            both[v - 1] |= 1 << (u - 1)
        else:
            if kind == 2:
                u, v = v, u
            succ[u - 1] |= 1 << (v - 1)
            pred[v - 1] |= 1 << (u - 1)
    if any(both):
        if not any(succ):
            succ = pred = both
        else:
            succ = [a | b for a, b in zip(succ, both)]
            pred = [a | b for a, b in zip(pred, both)]
    alive = leaf.alive & ~_reach(pred, pinned)
    fit = [m for m in big if not m & ~alive and m.bit_count() <= leaf.k]
    return _Masks(succ, pred, nand, fit, unread, alive, leaf.forced, leaf.k)


def _reach(rows: Sequence[int], mask: int) -> int:
    """`mask` and every variable reachable from it along `rows`."""
    frontier = mask
    while frontier:
        frontier = _block(rows, frontier) & ~mask
        mask |= frontier
    return mask


def _components(rows: Sequence[int], alive: int) -> list[int]:
    """The components inside `alive` of symmetric rows, as masks, in
    order of least member."""
    comps = []
    while alive:
        comp = _reach(rows, alive & -alive)
        comps.append(comp)
        alive &= ~comp
    return comps


def _closure(succ: Sequence[int], verts: int) -> list[int]:
    """Descendant masks of the variables of `verts` (each its own), laid
    out as the rows; `verts` must hold every successor of its members.

    One pass over the strongly connected components (Tarjan 1972): a
    component closes only after every component it reaches, so its set
    is its members and their outside successors' sets.
    """
    desc = [0] * len(succ)
    number = [0] * len(succ)  # DFS order, 0 while unvisited
    low = [0] * len(succ)
    stack: list[int] = []
    count = 0
    for root in _vertices(verts):
        if number[root - 1]:
            continue
        count += 1
        number[root - 1] = low[root - 1] = count
        if not succ[root - 1]:  # a sink is a component of its own
            desc[root - 1] = 1 << (root - 1)
            continue
        stack.append(root)
        work = [[root, succ[root - 1]]]  # variable, successors not walked
        while work:
            frame = work[-1]
            v, rest = frame
            if rest:
                frame[1] = rest & (rest - 1)
                w = (rest & -rest).bit_length()
                if not number[w - 1]:
                    count += 1
                    number[w - 1] = low[w - 1] = count
                    stack.append(w)
                    work.append([w, succ[w - 1]])
                elif not desc[w - 1]:  # still on the stack
                    low[v - 1] = min(low[v - 1], number[w - 1])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u - 1] = min(low[u - 1], low[v - 1])
            if low[v - 1] == number[v - 1]:
                comp = w = 0
                while w != v:
                    w = stack.pop()
                    comp |= 1 << (w - 1)
                d = comp | _block(desc, _block(succ, comp) & ~comp)
                for w in _vertices(comp):
                    desc[w - 1] = d
    return desc


def _pruned(
    succ: Sequence[int], rows: Sequence[int], alive: int, k: int
) -> tuple[list[int], int]:
    """The descendant masks of `alive` (`_closure`; it must hold every
    successor of its members), and `alive` without the variables no
    weight-k solution sets true: a descendant set larger than k or
    holding a NAND pair of `rows` rules a variable out.  Both tests pass
    to every ancestor, so the set removed is closed under ancestors and
    the survivors' descendant sets stay."""
    desc = _closure(succ, alive)
    for v in _vertices(alive):
        d = desc[v - 1]
        if d.bit_count() > k or _block(rows, d) & d:
            alive &= ~(1 << (v - 1))
    return desc, alive


def impl_prune(phi: CspInstance, k: int) -> CspInstance:
    """Delete variables no weight-k solution can set true.

    A variable drags its whole descendant set into a solution, so
    |D(v)| > k rules v out; so does a NAND pair inside D(v), in which
    case every ancestor of v dies with it.  Both tests read the
    descendant masks: a popcount, and the set's NAND neighbours against
    the set.  Removal fixes the variable to false and specializes its
    constraints, preserving weight-k satisfiability.
    """
    r = _read(_root(phi, k))
    every = (1 << phi.n) - 1
    _, alive = _pruned(r.succ, r.nand, every, k)
    cons = _fix(phi.constraints, dict.fromkeys(_vertices(every & ~alive), 0))
    if cons is None:
        return _unsatisfiable(phi)
    return _checked(phi, _Leaf(phi.n, cons, alive, k))


@dataclass(frozen=True)
class CspResult:
    """Outcome of solve_csp: decision, optional verified assignment, route taken."""

    satisfiable: bool
    assignment: Optional[tuple[int, ...]]
    route: str

    def __bool__(self) -> bool:
        return self.satisfiable


def _closed_set_search(
    desc: Sequence[int], rows: Sequence[int], alive: int, k: int,
    big: Sequence[int], state_cap: int,
) -> Optional[int]:
    """A weight-k set inside `alive` closed under implication with no
    NAND pair and no large edge inside, as a mask, or None when there
    is none.

    `desc` are descendant masks (those of `alive` lie inside it), `rows`
    the NAND rows and `big` the large edges (none on a binary leaf).
    Bounded DFS over unions of descendant sets, on bitmasks and an
    explicit stack, with a visited-state memo; a union holding a NAND
    pair or a large edge is cut, and holding either passes to every
    larger union.  Raises ResourceLimit past `state_cap` states.
    """
    if k == 0:
        return 0
    if state_cap <= 0:
        raise ResourceLimit("closed-set search states", state_cap + 1, state_cap)
    budget = state_cap - 1  # the empty union is the first state
    # Each alive variable's descendant set as (mask, its NAND
    # neighbours); a set with a NAND pair or a large edge inside is
    # never part of a solution.  A large edge has three or more
    # variables, so only sets that large are tested against them.
    gens = [
        (m, b) for v in _vertices(alive)
        if (b := _block(rows, m := desc[v - 1])) & m == 0
        and not (big and m.bit_count() >= 3 and any(e & ~m == 0 for e in big))
    ]
    # Minimal start index each set was already explored from; exploring
    # from start s covers all continuations with later generators, so a
    # revisit is only needed when the new start is strictly smaller.
    explored: dict[int, int] = {}
    # Depth first, on an explicit stack of frames [union, its blocked
    # variables, next generator to try].
    stack = [[0, 0, 0]]
    end = len(gens)
    while stack:
        frame = stack[-1]
        current, blocked, i = frame
        while i < end:
            m, b = gens[i]
            i += 1
            if m & ~current == 0 or m & blocked:
                continue
            nxt = current | m
            size = nxt.bit_count()
            if size > k or big and size >= 3 and any(e & ~nxt == 0 for e in big):
                continue
            prev = explored.get(nxt)
            if prev is not None and prev <= i:
                continue
            explored[nxt] = i
            break
        else:
            stack.pop()
            continue
        frame[2] = i
        if size == k:
            return nxt
        if budget <= 0:
            raise ResourceLimit("closed-set search states", state_cap + 1, state_cap)
        budget -= 1
        stack.append([nxt, blocked | b, i])
    return None


def _ascending(mask: int) -> Iterator[int]:
    """The variables of `mask`, ascending, peeled one 64-bit word at a
    time: a caller that stops early pays for the words it reached, not
    for the whole mask."""
    base = 0
    while mask:
        word = mask & 0xFFFF_FFFF_FFFF_FFFF
        while word:
            low = word & -word
            word ^= low
            yield base + low.bit_length()
        mask >>= 64
        base += 64


def _free_variables(leaf: _Leaf) -> Optional[int]:
    """The leaf's forced variables plus its k lowest alive variables no
    constraint holds, as a mask, or None when there are fewer than k."""
    used = set(itertools.chain.from_iterable(map(itemgetter(1), leaf.constraints)))
    free = [*itertools.islice((v for v in _ascending(leaf.alive) if v not in used), leaf.k)]
    return leaf.forced | _mask(free) if len(free) == leaf.k else None


def _greedy(leaf: _Leaf) -> Optional[int]:
    """The sparse greedy on a 0-valid leaf: the mask of a weight-k true
    set (forced variables included), or None when it cannot vouch for one.

    With n the leaf's alive variables, the guarantee needs each table's
    constraint count m_f to satisfy 2 k |F| m_f <= n^u_min(f); when that
    gate fails, or some round finds no slack variable (no incidences at
    tables with u_min 1, and per-table degree d with d n_i <= |F| m_f),
    the answer is None.  Each round takes the lowest slack variable in
    id order, sets it true and specialises its constraints, adding the
    resulting tables as new classes.

    Only the variables of a window, ids 1..top, get incidence lists.  It
    starts at one 64-bit word and doubles only when every candidate in
    it fails the slack test; the constraints that specialisation makes
    join the lists of their window variables as they are made.
    """
    k = leaf.k
    n = leaf.alive.bit_count()
    if k > n:
        return None
    if k == 0:
        return leaf.forced

    # A table's length fixes its arity, so the table alone keys a class;
    # each function object is looked up by id, once: the leaf's functions
    # live as long as it does, and specialize caches the ones made here.
    class_of: dict[int, int] = {}
    index: dict[tuple[int, ...], int] = {}
    umin: list[int] = []
    count: list[int] = []  # live constraints per class

    def class_index(f: ConstraintFunction) -> int:
        c = class_of.get(id(f))
        if c is None:
            c = index.get(f.table)
            if c is None:
                c = index[f.table] = len(count)
                umin.append(u_min(f))
                count.append(0)
            class_of[id(f)] = c
        return c

    # Dropped constraints become None; made ones are appended.  The
    # counts per function object take one pass over their ids, and each
    # object is then found at its first use.
    cons: list[Optional[Constraint]] = list(leaf.constraints)
    for key, m_f in Counter(map(id, map(itemgetter(0), cons))).items():
        first = indexOf(map(id, map(itemgetter(0), cons)), key)
        count[class_index(cons[first][0])] += m_f

    def families() -> int:
        return max(1, sum(1 for m_f in count if m_f))

    n_families = families()
    for c, m_f in enumerate(count):
        if m_f and 2 * k * n_families * m_f > n ** umin[c]:
            return None

    # Ids of the constraints that held each window variable, dropped
    # ones too.
    incidence: defaultdict[int, list[int]] = defaultdict(list)
    top = 0

    def widen(new_top: int) -> None:
        nonlocal top
        for cid, con in enumerate(cons):
            if con is not None:
                for v in con[1]:
                    if top < v <= new_top:
                        incidence[v].append(cid)
        top = new_top

    def slack(v: int, n_f: int, n_i: int) -> bool:
        # Per-table degrees of v over its live constraints; a degree only
        # grows, so the first table over its bound decides.
        deg: dict[int, int] = {}
        for cid in incidence.get(v, ()):
            con = cons[cid]
            if con is not None:
                c = class_of[id(con[0])]
                d = deg[c] = deg.get(c, 0) + 1
                if umin[c] == 1 or d * n_i > n_f * count[c]:
                    return False
        return True

    widen(64)
    chosen = 0
    for i in range(k):
        n_f = families()
        tested = 0  # ids 1..tested failed this round
        while True:
            window = (leaf.alive & ~chosen & ((1 << top) - 1)) >> tested
            pick = next(
                (v + tested for v in _ascending(window) if slack(v + tested, n_f, n - i)),
                None,
            )
            if pick is not None:
                break
            if not leaf.alive >> top:
                return None
            tested = top
            widen(2 * top)
        chosen |= 1 << (pick - 1)
        for cid in incidence.get(pick, ()):
            con = cons[cid]
            if con is None:
                continue
            f, vs = con
            cons[cid] = None
            count[class_of[id(f)]] -= 1
            g = specialize(f, vs.index(pick) + 1, 1)
            if g.is_constant_true:
                continue
            if g.is_constant_false:
                raise VerificationError("0-validity lost during specialization")
            count[class_index(g)] += 1
            rest = tuple(v for v in vs if v != pick)
            for v in rest:
                if v <= top:
                    incidence[v].append(len(cons))
            cons.append((g, rest))
    return leaf.forced | chosen


def _exhaustive(leaf: _Leaf) -> Optional[int]:
    """First weight-k solution of a leaf, scanning k-sets of its alive
    variables in lexicographic order, as the mask of its true set
    (forced variables included); None when there is none.

    Raises ResourceLimit instead when there are more than FALLBACK_CAP
    k-sets to scan.
    """
    kept = _vertices(leaf.alive)
    total = comb(len(kept), leaf.k)
    if total > FALLBACK_CAP:
        raise ResourceLimit("exhaustive subset scan", total, FALLBACK_CAP)
    # Each constraint as the mask of its variables and the set of their
    # restrictions (as masks) that it rejects; rejected rows are read
    # once per function object.
    rejected_rows: dict[int, list[int]] = {}
    checks = []
    for f, vs in leaf.constraints:
        rows = rejected_rows.get(id(f))
        if rows is None:
            rows = rejected_rows[id(f)] = [j for j, ok in enumerate(f.table) if not ok]
        bits = [1 << (v - 1) for v in vs]
        rejected = {sum(b for p, b in enumerate(bits) if j >> p & 1) for j in rows}
        checks.append((sum(bits), rejected))
    for combo in itertools.combinations(kept, leaf.k):
        m = _mask(combo)
        for held, rejected in checks:
            if m & held in rejected:
                break
        else:
            return leaf.forced | m
    return None


def _verify(phi: CspInstance, mask: int, k: int, want_witness: bool) -> Optional[tuple[int, ...]]:
    """Check a YES answer, the mask of its true set, against phi: weight
    k, variables in 1..n, every constraint satisfied.  The check runs
    whether or not a witness is wanted; the sorted true set is returned
    when one is."""
    if mask < 0 or mask >> phi.n:
        raise VerificationError(f"witness holds a variable outside 1..{phi.n}")
    chosen = _vertices(mask)
    if len(chosen) != k:
        raise VerificationError(f"witness weight {len(chosen)} != {k}")
    if not phi.satisfied_by(chosen):
        raise VerificationError("witness fails verification")
    return tuple(chosen) if want_witness else None


class _Unread(Exception):
    """The leaf holds a table `_read` left unread."""


def _solve_leaf(leaf: _Leaf, regime: Regime) -> Optional[int]:
    """Solve one 0-valid leaf: the mask of its true set (forced variables
    included), or None.

    The leaf is read once and answered from the reading, with nothing
    specialised.  A Clique leaf past the search's state cap goes to the
    nand_impl pipeline as its reading, with the alive mask pruned here;
    past any other limit the ResourceLimit propagates.  A leaf with an
    unread table raises `_Unread`.
    """
    r = _read(leaf)
    if r.unread is not None:
        raise _Unread(r.unread.name)
    alive, succ, nand, big, k = r.alive, r.succ, r.nand, r.big, r.k
    if k == 0:
        return r.forced
    if k > alive.bit_count():
        return None

    if regime.kind == "Linear":
        comps = _components(succ, alive)
        picked = _subset_sum_pick([min(c.bit_count(), k + 1) for c in comps], k)
        if picked is None:
            return None
        return r.forced | sum(comps[i] for i in picked)

    # Implications (IMPL or EQ) are pruned and searched while an alive
    # variable has a successor; without one a leaf is k-IS.
    if any(succ) and any(succ[v - 1] for v in _ascending(alive)):
        desc, alive = _pruned(succ, nand, alive, k)
        if k > alive.bit_count():
            return None
        big = [e for e in big if not e & ~alive]
        if any(succ[v - 1] for v in _ascending(alive)):
            # A solution is a union of descendant sets, so an exhausted
            # search is a NO; past the cap the pipeline solves a Clique leaf.
            clique = regime.kind == "Clique"
            try:
                got = _closed_set_search(
                    desc, nand, alive, k, big,
                    NAND_IMPL_STATE_CAP if clique else SEARCH_STATE_CAP,
                )
            except ResourceLimit:
                if not clique:
                    raise
                return nand_impl._solve_branch(r._replace(alive=alive))
            return None if got is None else r.forced | got
    ok, found = kis._decide(nand, alive, big, k, True)
    return r.forced | found if ok else None


def solve_csp(phi: CspInstance, k: int, want_witness: bool = True) -> CspResult:
    """Decide weight-k satisfiability, routing by family and density.

    Binary instances go through the regime classifier; very sparse ones
    first try the free-variable shortcut.  Higher-arity instances try
    the sparse greedy solver, then the leaf solver on each leaf ("regime
    KIS"), and an exhaustive scan behind a size guard on the leaves with
    an unread table or where the leaf solver meets a resource limit.
    Every leaf solver answers with the mask of a true set in phi's own
    variable ids, and every YES is verified against `phi` once before
    this function returns, whether or not a witness is wanted.
    """
    if k < 0:
        raise ValueError(f"negative weight budget {k}")
    if k > phi.n:
        return CspResult(False, None, "budget exceeds variable count")
    if k == 0:
        if all(f.table[0] == 1 for f, _ in phi.constraints):
            return CspResult(True, _verify(phi, 0, 0, want_witness), "weight zero")
        return CspResult(False, None, "weight zero")

    leaves = _branch(phi, k)
    binary = phi.max_arity <= 2
    if binary:
        if 2 * k * max(1, len(phi.functions)) * phi.m < phi.n:
            for leaf in leaves:
                got = _free_variables(leaf)
                if got is not None:
                    return CspResult(True, _verify(phi, got, k, want_witness), "free variables")
        regime = classify_binary_family(phi.functions)
    else:
        # The sparse greedy first (None is its "no guarantee"); the
        # leaf solver reads the leaves as k-IS, searching implications.
        for leaf in leaves:
            got = _greedy(leaf)
            if got is not None:
                return CspResult(True, _verify(phi, got, k, want_witness), "sparse greedy")
        regime = Regime("KIS")
    scanned = False
    for leaf in leaves:
        try:
            got = _solve_leaf(leaf, regime)
        except (ResourceLimit, _Unread):
            if binary:
                raise
            scanned = True
            got = _exhaustive(leaf)
            if got is not None:
                return CspResult(True, _verify(phi, got, k, want_witness), "exhaustive fallback")
            continue
        if got is not None:
            return CspResult(True, _verify(phi, got, k, want_witness), f"regime {regime}")
    if scanned:
        return CspResult(False, None, "exhaustive fallback")
    return CspResult(False, None, f"regime {regime}")
