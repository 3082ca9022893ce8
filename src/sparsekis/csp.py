"""Boolean constraint satisfaction with a weight budget.

A constraint function is an explicit truth table over up to six Boolean
arguments; an instance applies such functions to tuples of distinct
variables, and the question is whether some assignment with exactly k
true variables satisfies every constraint.

The family of tables appearing in a binary instance determines how hard
that question is, and `classify_binary_family` sorts families into four
regimes (Linear, Subexponential, KIS, Clique).  The solver entry point
`solve_csp` routes instances accordingly: branch-and-bound strips
constraints the all-false assignment violates, easy constraints that pin
variables false are propagated away, equality constraints reduce to a
subset-sum over component sizes, implication structure is pruned through
descendant sets, and what remains goes to the independent-set machinery.

`solve_csp` keeps the caller's variable ids from entry to verdict.  A
branch or leaf is a `_Leaf`: a plain list of (function, variables)
constraints, a residual budget, and masks of the alive (not yet fixed)
and forced-true variables.  Fixing a variable specialises only the
constraints that hold it; nothing is renumbered and no `CspInstance` is
built or validated per step.  The nand_impl pipeline takes leaves as
they are and branches on them with the same helpers.  Every leaf
solver, the sparse greedy `_greedy` and the exhaustive scan included,
answers with the mask of a true set (forced variables included) or
None, and `_verify` checks each YES against the caller's instance once,
whether or not a witness is wanted.  A checked instance is built only
in the public `branch_and_bound`, `preprocess_easy` and `impl_prune`,
which wrap the same core.

Descendant and ancestor sets are bitmasks laid out as the NAND rows, so
the NAND neighbours of a set are one `_block` over its mask.  The table
facts `specialize`, `forced_false_positions` and `u_min` are cached per
function.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from math import comb
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ResourceLimit, VerificationError
from .hypergraph import _block, _mask, _vertices

MAX_CSP_ARITY = 6

#: Hard cap on states visited by the bounded closed-set search
#: (Subexponential regime) before giving up with ResourceLimit.
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

_IMPL_FWD = (1, 0, 1, 1)
_IMPL_BWD = (1, 1, 0, 1)


def is_nand_fn(f: ConstraintFunction) -> bool:
    return f.arity == 2 and f.table == NAND2.table


def is_impl_fn(f: ConstraintFunction) -> bool:
    return f.arity == 2 and f.table in (_IMPL_FWD, _IMPL_BWD)


def is_eq_fn(f: ConstraintFunction) -> bool:
    return f.arity == 2 and f.table == EQ2.table


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


def _is_easy_fn(f: ConstraintFunction) -> bool:
    # A function whose whole effect is pinning some arguments false:
    # fixing its forced-false positions to 0 leaves it constant-true.
    forced = forced_false_positions(f)
    if not forced:
        return False
    g = f
    for p in sorted(forced, reverse=True):
        g = specialize(g, p, 0)
    return g.is_constant_true


def classify_binary_family(funcs: Iterable[ConstraintFunction]) -> Regime:
    """Sort a family of arity <= 2 functions into its hardness regime.

    Functions that only pin variables false (NOR, NOT and their padded
    forms) never influence the regime and are ignored.  With a NAND
    present, any other surviving function tips the family into the
    Clique regime with offset min s_min over those survivors; NAND alone
    is the KIS regime; an implication without NAND is Subexponential;
    anything else is Linear.
    """
    family = list(funcs)
    for f in family:
        if f.arity > 2:
            raise ValueError(f"non-binary function {f.name!r} (arity {f.arity})")
    work = [
        f
        for f in family
        if not f.is_constant_true and not f.is_constant_false and not _is_easy_fn(f)
    ]
    has_nand = any(is_nand_fn(f) for f in work)
    has_impl = any(is_impl_fn(f) for f in work)
    if has_nand:
        rest = [f for f in work if not is_nand_fn(f)]
        if not rest:
            return Regime("KIS")
        return Regime("Clique", offset=min(s_min(f) for f in rest))
    if has_impl:
        return Regime("Subexponential")
    return Regime("Linear")


class _Leaf(NamedTuple):
    """A branch or leaf of the solver, in the caller's own variable ids.

    `constraints` mention only variables in `alive` (bit v - 1 for
    variable v), the ones not fixed yet; `forced` holds the variables
    the branch set true and `k` the residual weight budget.  `n` is the
    caller's variable count, so the row helpers (`_nand_rows`,
    `build_impl_structure`) read a leaf as they read an instance: a
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


def _drop(leaf: _Leaf, dead: int) -> Optional[_Leaf]:
    """Fix the variables of mask `dead` false; None on contradiction."""
    cons = _fix(leaf.constraints, dict.fromkeys(_vertices(dead), 0))
    if cons is None:
        return None
    return leaf._replace(constraints=cons, alive=leaf.alive & ~dead)


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
    """An explicitly never-satisfiable remnant of `inst`, keeping its labels."""
    if inst.n >= 1:
        return CspInstance(inst.n, ((NEVER1, (1,)),), labels=inst.labels)
    return CspInstance(1, ((NEVER1, (1,)),), labels=(0,))


def _propagate(leaf: _Leaf) -> Optional[_Leaf]:
    """Fix every variable some constraint pins false, to a fixed point;
    None when that contradicts a constraint."""
    # Pinned positions per function object: a few functions carry many
    # constraints, and the cached table facts are keyed by value.
    pins: dict[int, tuple[int, ...]] = {}
    while True:
        pinned = 0
        for f, vs in leaf.constraints:
            ps = pins.get(id(f))
            if ps is None:
                ps = pins[id(f)] = forced_false_positions(f)
            for p in ps:
                pinned |= 1 << (vs[p - 1] - 1)
        if not pinned:
            return leaf
        leaf = _drop(leaf, pinned)
        if leaf is None:
            return None


def preprocess_easy(phi: CspInstance, k: int) -> CspInstance:
    """Propagate away every variable some constraint pins false.

    Runs to a fixed point: variables at forced-false positions are set
    to 0, their constraints specialized, and newly created pinning
    constraints handled in turn.  Weight-k satisfiability is unchanged
    for every k.  A contradiction (some variable pinned false and forced
    true) leaves one never-satisfiable unary constraint behind.
    """
    got = _propagate(_root(phi, k))
    return _unsatisfiable(phi) if got is None else _checked(phi, got)


@dataclass(frozen=True)
class BranchLeaf:
    """One 0-valid leaf of the branch-and-bound tree.

    `forced_true` holds the original labels of the variables the branch
    set true; `k` is the residual weight budget.
    """

    instance: CspInstance
    k: int
    forced_true: frozenset[int]


def _branch(phi: CspInstance, k: int) -> list[_Leaf]:
    """The 0-valid leaves of branching on all-false-violated constraints."""
    leaves: list[_Leaf] = []

    def rec(leaf: _Leaf) -> None:
        viol = next((c for c in leaf.constraints if c[0].table[0] == 0), None)
        if viol is None:
            leaves.append(leaf)
            return
        if leaf.k == 0:
            return
        for v in viol[1]:
            cons = _fix(leaf.constraints, {v: 1})
            if cons is not None:
                bit = 1 << (v - 1)
                rec(_Leaf(leaf.n, cons, leaf.alive & ~bit, leaf.k - 1, leaf.forced | bit))

    rec(_root(phi, k))
    return leaves


def branch_and_bound(phi: CspInstance, k: int) -> list[BranchLeaf]:
    """Branch on constraints the all-false assignment violates.

    Each branch sets one variable of the first such constraint true,
    specializes, and recurses with budget k-1; infeasible branches are
    pruned.  Leaves are 0-valid instances whose solutions (of the
    residual weights), unioned with the forced variables, are exactly
    the weight-k solutions of `phi`.  An empty list means UNSAT.
    """
    return [
        BranchLeaf(
            _checked(phi, leaf),
            leaf.k,
            frozenset(phi.label_of(v) for v in _vertices(leaf.forced)),
        )
        for leaf in _branch(phi, k)
    ]


def _eq_components(phi: CspInstance, variables: Iterable[int]) -> list[list[int]]:
    """Components of the equality graph over `variables` (every variable
    a constraint holds must be among them), in order of least member."""
    parent = list(range(phi.n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f, vs in phi.constraints:
        if not is_eq_fn(f):
            raise ValueError(f"non-EQ constraint {f.name!r} in EQ-only instance")
        a = find(vs[0])
        b = find(vs[1])
        if a != b:
            parent[a] = b
    comps: dict[int, list[int]] = {}
    for v in variables:
        comps.setdefault(find(v), []).append(v)
    return list(comps.values())


def _subset_sum_pick(weights: list[int], k: int) -> Optional[list[int]]:
    """Indices of weights summing to exactly k, respecting multiplicity; None if impossible."""
    if k == 0:
        return []
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


def eq_components_subset_sum(phi_eq: CspInstance, k: int) -> bool:
    """Decide weight-k satisfiability of an EQ-only instance.

    Components of the equality graph must be taken whole, so the
    question is whether component sizes (each usable once, sizes above k
    discarded) can sum to exactly k.
    """
    weights = [len(c) for c in _eq_components(phi_eq, range(1, phi_eq.n + 1))]
    return _subset_sum_pick([w for w in weights if w <= k], k) is not None


def impl_edges(phi: CspInstance) -> set[tuple[int, int]]:
    """Directed implication pairs (u, v) meaning u true forces v true."""
    out: set[tuple[int, int]] = set()
    for f, vs in phi.constraints:
        if f.arity != 2:
            continue
        if f.table == _IMPL_FWD:
            out.add((vs[0], vs[1]))
        elif f.table == _IMPL_BWD:
            out.add((vs[1], vs[0]))
        elif is_eq_fn(f):
            out.add((vs[0], vs[1]))
            out.add((vs[1], vs[0]))
    return out


def _nand_rows(phi: CspInstance) -> list[int]:
    """NAND-neighbour bitmask per variable; index v-1, bit u-1."""
    rows = [0] * phi.n
    for f, vs in phi.constraints:
        if is_nand_fn(f):
            u, v = vs
            rows[u - 1] |= 1 << (v - 1)
            rows[v - 1] |= 1 << (u - 1)
    return rows


def build_impl_structure(phi: CspInstance) -> tuple[list[int], list[int]]:
    """Descendant and ancestor masks of the implication digraph.

    Returns `(desc, anc)`, laid out as `_nand_rows`: index v-1, bit u-1.
    `desc[v - 1]` holds every variable that v true forces true, v itself
    included, found by expanding a frontier over successor masks;
    `anc[v - 1]` holds every variable that forces v.  EQ reads as two
    implications.
    """
    succ = [0] * phi.n
    for u, v in impl_edges(phi):
        succ[u - 1] |= 1 << (v - 1)
    desc: list[int] = []
    anc = [0] * phi.n
    for i in range(phi.n):
        seen = frontier = 1 << i
        if not succ[i]:
            # A variable that implies nothing (one a leaf has fixed, too).
            desc.append(seen)
            anc[i] |= seen
            continue
        while frontier:
            frontier = _block(succ, frontier) & ~seen
            seen |= frontier
        desc.append(seen)
        for u in _vertices(seen):
            anc[u - 1] |= 1 << i
    return desc, anc


def _prune(leaf: _Leaf) -> Optional[_Leaf]:
    """`impl_prune` on a leaf, against its budget; None on contradiction."""
    desc, anc = build_impl_structure(leaf)
    rows = _nand_rows(leaf)
    bad = 0
    for i, d in enumerate(desc):
        if d.bit_count() > leaf.k:
            bad |= 1 << i
        elif _block(rows, d) & d:
            bad |= anc[i]
    return _drop(leaf, bad) if bad else leaf


def impl_prune(phi: CspInstance, k: int) -> CspInstance:
    """Delete variables no weight-k solution can set true.

    A variable drags its whole descendant set into a solution, so
    |D(v)| > k rules v out; so does a NAND pair inside D(v), in which
    case every ancestor of v dies with it.  Both tests read the
    descendant masks: a popcount, and the set's NAND neighbours against
    the set.  Removal fixes the variable to false and specializes its
    constraints, preserving weight-k satisfiability.
    """
    got = _prune(_root(phi, k))
    return _unsatisfiable(phi) if got is None else _checked(phi, got)


def _tighten(leaf: _Leaf) -> Optional[_Leaf]:
    # Pruning fixes variables false, which leaves pinning constraints
    # behind; propagate those before reading off the implication order.
    leaf = _prune(leaf)
    return None if leaf is None else _propagate(leaf)


@dataclass(frozen=True)
class CspResult:
    """Outcome of solve_csp: decision, optional verified assignment, route taken."""

    satisfiable: bool
    assignment: Optional[tuple[int, ...]]
    route: str

    def __bool__(self) -> bool:
        return self.satisfiable


def _closed_set_search(
    leaf: _Leaf, k: int, state_cap: int = SEARCH_STATE_CAP
) -> Optional[int]:
    """A weight-k set of the leaf's alive variables closed under
    implication with no NAND pair inside, as the mask of the leaf's true
    set (forced variables included), or None when there is none.

    Bounded DFS over unions of descendant sets, on bitmasks, with a
    visited-state memo; a union holding a NAND pair is cut.  Raises
    ResourceLimit past `state_cap` states.
    """
    if k == 0:
        return leaf.forced
    desc, _ = build_impl_structure(leaf)
    rows = _nand_rows(leaf)
    # Each alive variable's descendant set as (mask, its NAND
    # neighbours); a set with a NAND pair inside is never part of a
    # solution.
    gens = [
        (m, b)
        for i, m in enumerate(desc)
        if leaf.alive >> i & 1 and (b := _block(rows, m)) & m == 0
    ]
    # Minimal start index each set was already explored from; exploring
    # from start s covers all continuations with later generators, so a
    # revisit is only needed when the new start is strictly smaller.
    explored: dict[int, int] = {}
    budget = [state_cap]

    def rec(current: int, blocked: int, start: int) -> Optional[int]:
        if current.bit_count() == k:
            return current
        if budget[0] <= 0:
            raise ResourceLimit("closed-set search states", state_cap + 1, state_cap)
        budget[0] -= 1
        for i in range(start, len(gens)):
            m, b = gens[i]
            if m & ~current == 0 or m & blocked:
                continue
            nxt = current | m
            if nxt.bit_count() > k:
                continue
            prev = explored.get(nxt)
            if prev is not None and prev <= i + 1:
                continue
            explored[nxt] = i + 1
            got = rec(nxt, blocked | b, i + 1)
            if got is not None:
                return got
        return None

    got = rec(0, 0, 0)
    return None if got is None else leaf.forced | got


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
    used: set[int] = set()
    for _, vs in leaf.constraints:
        used.update(vs)
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
    """
    k = leaf.k
    n = leaf.alive.bit_count()
    if k > n:
        return None
    if k == 0:
        return leaf.forced

    # Constraints refer to table classes by index; a table's length fixes
    # its arity, so the table alone keys a class.  Each function object
    # is looked up once: the leaf's functions live as long as it does,
    # and specialize caches the ones made here.
    class_of: dict[int, int] = {}
    index: dict[tuple[int, ...], int] = {}
    fns: list[ConstraintFunction] = []  # one function per class
    umin: list[int] = []
    count: list[int] = []  # live constraints per class

    def class_index(f: ConstraintFunction) -> int:
        c = class_of.get(id(f))
        if c is None:
            c = index.get(f.table)
            if c is None:
                c = index[f.table] = len(fns)
                fns.append(f)
                umin.append(u_min(f))
                count.append(0)
            class_of[id(f)] = c
        return c

    cons: list[Optional[tuple[int, tuple[int, ...]]]] = [
        (class_index(f), vs) for f, vs in leaf.constraints
    ]
    # Ids of the constraints that held each variable, dropped ones too;
    # only variables some constraint touches get an entry.
    incidence: defaultdict[int, list[int]] = defaultdict(list)
    for cid, (c, vs) in enumerate(cons):  # type: ignore[misc]
        count[c] += 1
        for v in vs:
            incidence[v].append(cid)

    def families() -> int:
        return max(1, sum(1 for m_f in count if m_f))

    n_families = families()
    for c, m_f in enumerate(count):
        if m_f and 2 * k * n_families * m_f > n ** umin[c]:
            return None

    def slack(v: int, n_f: int, n_i: int) -> bool:
        # Per-table degrees of v over its live constraints.
        deg: dict[int, int] = {}
        for cid in incidence.get(v, ()):
            con = cons[cid]
            if con is not None:
                deg[con[0]] = deg.get(con[0], 0) + 1
        return all(umin[c] != 1 and d * n_i <= n_f * count[c] for c, d in deg.items())

    chosen = 0
    for i in range(k):
        n_f = families()
        pick = next(
            (v for v in _ascending(leaf.alive & ~chosen) if slack(v, n_f, n - i)), None
        )
        if pick is None:
            return None
        chosen |= 1 << (pick - 1)
        for cid in incidence.get(pick, ()):
            con = cons[cid]
            if con is None:
                continue
            c, vs = con
            cons[cid] = None
            count[c] -= 1
            g = specialize(fns[c], vs.index(pick) + 1, 1)
            if g.is_constant_true:
                continue
            if g.is_constant_false:
                raise VerificationError("0-validity lost during specialization")
            c = class_index(g)
            count[c] += 1
            rest = tuple(v for v in vs if v != pick)
            for v in rest:
                incidence[v].append(len(cons))
            cons.append((c, rest))
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


def _solve_leaf_binary(leaf: _Leaf, regime: Regime) -> Optional[int]:
    """Solve one 0-valid binary leaf: the mask of its true set (forced
    variables included), or None."""
    from . import kis as _kis
    from . import nand_impl as _nand_impl

    leaf = _propagate(leaf)
    if leaf is None:
        return None
    k = leaf.k
    if k == 0:
        return leaf.forced
    if k > leaf.alive.bit_count():
        return None

    if regime.kind == "Linear":
        comps = _eq_components(leaf, _vertices(leaf.alive))
        weights = [len(c) for c in comps]
        picked = _subset_sum_pick([w if w <= k else k + 1 for w in weights], k)
        if picked is None:
            return None
        return leaf.forced | _mask(v for i in picked for v in comps[i])

    if regime.kind == "Subexponential":
        leaf = _tighten(leaf)
        if leaf is None or k > leaf.alive.bit_count():
            return None
        return _closed_set_search(leaf, k)

    # KIS and Clique leaves reduce to graphs of NAND edges, possibly with
    # implication structure (IMPL or EQ) on top.
    if impl_edges(leaf):
        leaf = _tighten(leaf)
        if leaf is None:
            return None
        if impl_edges(leaf):
            # A solution is a NAND-free union of descendant sets, so an
            # exhausted search is a NO; past the cap the pipeline solves
            # the leaf.
            try:
                return _closed_set_search(leaf, k, NAND_IMPL_STATE_CAP)
            except ResourceLimit:
                return _nand_impl._solve_leaf(leaf)
    ok, found = _kis._decide(_nand_rows(leaf), leaf.alive, (), k, True)
    return leaf.forced | found if ok else None


def solve_csp(phi: CspInstance, k: int, want_witness: bool = True) -> CspResult:
    """Decide weight-k satisfiability, routing by family and density.

    Binary instances go through the regime classifier; very sparse ones
    first try the free-variable shortcut.  Higher-arity instances get
    branch-and-bound, the sparse greedy solver, and an exhaustive
    fallback behind a size guard.  Every leaf solver answers with the
    mask of a true set in phi's own variable ids, and every YES is
    verified against `phi` once before this function returns, whether
    or not a witness is wanted.
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
    n_funcs = max(1, len(phi.functions))
    if phi.max_arity <= 2:
        if 2 * k * n_funcs * phi.m < phi.n:
            for leaf in leaves:
                got = _free_variables(leaf)
                if got is not None:
                    return CspResult(True, _verify(phi, got, k, want_witness), "free variables")
        regime = classify_binary_family(phi.functions)
        for leaf in leaves:
            got = _solve_leaf_binary(leaf, regime)
            if got is not None:
                return CspResult(True, _verify(phi, got, k, want_witness), f"regime {regime}")
        return CspResult(False, None, f"regime {regime}")

    # Higher-arity route: make leaves 0-valid, try the sparse greedy
    # solver (None is its "no guarantee"), fall back to bounded
    # exhaustive search.
    for leaf in leaves:
        got = _greedy(leaf)
        if got is not None:
            return CspResult(True, _verify(phi, got, k, want_witness), "sparse greedy")
    for leaf in leaves:
        got = _exhaustive(leaf)
        if got is not None:
            return CspResult(True, _verify(phi, got, k, want_witness), "exhaustive fallback")
    return CspResult(False, None, "exhaustive fallback")
