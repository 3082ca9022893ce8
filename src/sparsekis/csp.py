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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import ResourceLimit

MAX_CSP_ARITY = 6

#: Hard cap on states visited by the bounded closed-set search
#: (Subexponential regime) before giving up with ResourceLimit.
SEARCH_STATE_CAP = 500_000

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

    def __call__(self, bits: Sequence[int]) -> int:
        j = 0
        for p, b in enumerate(bits):
            j |= (b & 1) << p
        return self.table[j]

    @property
    def is_constant_true(self) -> bool:
        return all(self.table)

    @property
    def is_constant_false(self) -> bool:
        return not any(self.table)


def u_min(f: ConstraintFunction) -> int:
    """Minimum weight of a violating assignment; arity+1 if none violates."""
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


def specialize(f: ConstraintFunction, position: int, value: int) -> ConstraintFunction:
    """Fix the argument at 1-based `position` to `value`; arity drops by 1.

    The result can be a constant (arity 0, one-row table); callers drop
    constant-true results and treat constant-false as an infeasible branch.
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


def forced_false_positions(f: ConstraintFunction) -> tuple[int, ...]:
    """1-based positions that are 0 in every satisfying row (none if f is constant-false)."""
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
        seen: dict[tuple[int, tuple[int, ...]], ConstraintFunction] = {}
        for f, _ in self.constraints:
            seen.setdefault((f.arity, f.table), f)
        return tuple(seen.values())

    @cached_property
    def max_arity(self) -> int:
        return max((f.arity for f, _ in self.constraints), default=0)

    def label_of(self, v: int) -> int:
        return v if self.labels is None else self.labels[v - 1]

    def satisfied_by(self, true_vars: Iterable[int]) -> bool:
        """Evaluate every constraint under the given set of true variables."""
        t = set(true_vars)
        return all(
            f([1 if v in t else 0 for v in vs])
            for f, vs in self.constraints
        )


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


def _compose_labels(inst: CspInstance, kept: Sequence[int]) -> tuple[int, ...]:
    return tuple(inst.label_of(v) for v in kept)


def set_variables(
    inst: CspInstance,
    fixed: dict[int, int],
) -> Optional[CspInstance]:
    """Drop the variables in `fixed` at the given bits; None on contradiction.

    Constraints are specialized at the fixed positions; constant-true
    results are dropped, constant-false means no assignment extends the
    fixing and the caller gets None.
    """
    kept = [v for v in range(1, inst.n + 1) if v not in fixed]
    new_id = {v: i + 1 for i, v in enumerate(kept)}
    out: list[Constraint] = []
    for f, vs in inst.constraints:
        g = f
        # Fix from the highest position down; removing a position only
        # shifts the positions above it, so lower ones keep their index.
        for p in range(len(vs), 0, -1):
            if vs[p - 1] in fixed:
                g = specialize(g, p, fixed[vs[p - 1]])
        if g.is_constant_true:
            continue
        if g.is_constant_false:
            return None
        out.append((g, tuple(new_id[v] for v in vs if v not in fixed)))
    return CspInstance(len(kept), tuple(out), labels=_compose_labels(inst, kept))


def _rooted(phi: CspInstance) -> CspInstance:
    """`phi` itself if it carries labels, else a copy with identity labels."""
    if phi.labels is not None:
        return phi
    return CspInstance(phi.n, phi.constraints, labels=tuple(range(1, phi.n + 1)))


def _has_false(phi: CspInstance) -> bool:
    """True iff some constraint can never be satisfied."""
    return any(f.is_constant_false for f, _ in phi.constraints)


def _unsatisfiable(inst: CspInstance) -> CspInstance:
    """An explicitly never-satisfiable remnant of `inst`, keeping its labels."""
    if inst.n >= 1:
        return CspInstance(inst.n, ((NEVER1, (1,)),), labels=inst.labels)
    return CspInstance(1, ((NEVER1, (1,)),), labels=(0,))


def preprocess_easy(phi: CspInstance, k: int) -> CspInstance:
    """Propagate away every variable some constraint pins false.

    Runs to a fixed point: variables at forced-false positions are set
    to 0, their constraints specialized, and newly created pinning
    constraints handled in turn.  Weight-k satisfiability is unchanged
    for every k.  A contradiction (some variable pinned false and forced
    true) leaves one never-satisfiable unary constraint behind.
    """
    inst = _rooted(phi)
    while True:
        forced: set[int] = set()
        for f, vs in inst.constraints:
            for p in forced_false_positions(f):
                forced.add(vs[p - 1])
        if not forced:
            return inst
        nxt = set_variables(inst, {v: 0 for v in forced})
        if nxt is None:
            # Pinned-false contradiction: keep an explicitly unsatisfiable remnant.
            return _unsatisfiable(inst)
        inst = nxt


@dataclass(frozen=True)
class BranchLeaf:
    """One 0-valid leaf of the branch-and-bound tree.

    `forced_true` holds the original labels of the variables the branch
    set true; `k` is the residual weight budget.
    """

    instance: CspInstance
    k: int
    forced_true: frozenset[int]


def branch_and_bound(phi: CspInstance, k: int) -> list[BranchLeaf]:
    """Branch on constraints the all-false assignment violates.

    Each branch sets one variable of the first such constraint true,
    specializes, and recurses with budget k-1; infeasible branches are
    pruned.  Leaves are 0-valid instances whose solutions (of the
    residual weights), unioned with the forced variables, are exactly
    the weight-k solutions of `phi`.  An empty list means UNSAT.
    """
    root = _rooted(phi)
    leaves: list[BranchLeaf] = []

    def rec(inst: CspInstance, budget: int, forced: frozenset[int]) -> None:
        viol = next((c for c in inst.constraints if c[0].table[0] == 0), None)
        if viol is None:
            leaves.append(BranchLeaf(inst, budget, forced))
            return
        if budget == 0:
            return
        _, vs = viol
        for v in vs:
            child = set_variables(inst, {v: 1})
            if child is None:
                continue
            rec(child, budget - 1, forced | {inst.label_of(v)})

    rec(root, k, frozenset())
    return leaves


def _eq_components(phi: CspInstance) -> list[list[int]]:
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
    for v in range(1, phi.n + 1):
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
    weights = [len(c) for c in _eq_components(phi_eq)]
    return _subset_sum_pick([w for w in weights if w <= k], k) is not None


@dataclass(frozen=True)
class ImplStructure:
    """Reflexive-transitive descendant/ancestor sets over implication edges."""

    descendants: dict[int, frozenset[int]]
    ancestors: dict[int, frozenset[int]]


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


def nand_pairs(phi: CspInstance) -> set[frozenset[int]]:
    """Unordered pairs that may not both be true."""
    return {
        frozenset(vs) for f, vs in phi.constraints if is_nand_fn(f)
    }


def build_impl_structure(phi: CspInstance) -> ImplStructure:
    """Descendant/ancestor closure of the implication digraph (v is its own)."""
    succ: dict[int, list[int]] = {v: [] for v in range(1, phi.n + 1)}
    for u, v in impl_edges(phi):
        succ[u].append(v)
    desc: dict[int, frozenset[int]] = {}
    for v in range(1, phi.n + 1):
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in succ[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        desc[v] = frozenset(seen)
    anc: dict[int, set[int]] = {v: set() for v in range(1, phi.n + 1)}
    for v, ds in desc.items():
        for d in ds:
            anc[d].add(v)
    return ImplStructure(desc, {v: frozenset(s) for v, s in anc.items()})


def impl_prune(phi: CspInstance, k: int) -> CspInstance:
    """Delete variables no weight-k solution can set true.

    A variable drags its whole descendant set into a solution, so
    |D(v)| > k rules v out; so does a NAND pair inside D(v), in which
    case every ancestor of v dies with it.  Removal fixes the variable
    to false and specializes its constraints, preserving weight-k
    satisfiability.
    """
    inst = _rooted(phi)
    structure = build_impl_structure(inst)
    nands = nand_pairs(inst)
    bad: set[int] = set()
    for v in range(1, inst.n + 1):
        dv = structure.descendants[v]
        if len(dv) > k:
            bad.add(v)
            continue
        if any(pair <= dv for pair in nands):
            bad |= structure.ancestors[v]
    if not bad:
        return inst
    nxt = set_variables(inst, {v: 0 for v in bad})
    if nxt is None:
        return _unsatisfiable(inst)
    return nxt


@dataclass(frozen=True)
class CspResult:
    """Outcome of solve_csp: decision, optional verified assignment, route taken."""

    satisfiable: bool
    assignment: Optional[tuple[int, ...]]
    route: str

    def __bool__(self) -> bool:
        return self.satisfiable


def _closed_set_search(
    desc: dict[int, frozenset[int]], k: int, state_cap: int = SEARCH_STATE_CAP
) -> Optional[frozenset[int]]:
    """Find a descendant-closed set of exactly k variables, or None.

    Bounded DFS over unions of descendant sets with a visited-state memo;
    raises ResourceLimit past `state_cap` states.
    """
    if k == 0:
        return frozenset()
    order = sorted(desc)
    # Minimal start index each set was already explored from; exploring
    # from start s covers all continuations with later generators, so a
    # revisit is only needed when the new start is strictly smaller.
    explored: dict[frozenset[int], int] = {}
    budget = [state_cap]

    def rec(current: frozenset[int], start: int) -> Optional[frozenset[int]]:
        if len(current) == k:
            return current
        if budget[0] <= 0:
            raise ResourceLimit("closed-set search states", state_cap + 1, state_cap)
        budget[0] -= 1
        for i in range(start, len(order)):
            v = order[i]
            if v in current:
                continue
            nxt = current | desc[v]
            if len(nxt) > k:
                continue
            prev = explored.get(nxt)
            if prev is not None and prev <= i + 1:
                continue
            explored[nxt] = i + 1
            got = rec(nxt, i + 1)
            if got is not None:
                return got
        return None

    return rec(frozenset(), 0)


def _free_variables(inst: CspInstance) -> list[int]:
    used: set[int] = set()
    for _, vs in inst.constraints:
        used.update(vs)
    return [v for v in range(1, inst.n + 1) if v not in used]


def _verify(phi: CspInstance, true_vars: Iterable[int], k: int) -> tuple[int, ...]:
    chosen = tuple(sorted(set(true_vars)))
    assert len(chosen) == k, f"witness weight {len(chosen)} != {k}"
    assert phi.satisfied_by(chosen), "witness fails verification"
    return chosen


def _eq_to_impl(inst: CspInstance) -> CspInstance:
    out: list[Constraint] = []
    for f, vs in inst.constraints:
        if is_eq_fn(f):
            out.append((IMPL, (vs[0], vs[1])))
            out.append((IMPL, (vs[1], vs[0])))
        else:
            out.append((f, vs))
    return CspInstance(inst.n, tuple(out), labels=inst.labels)


def _solve_leaf_binary(leaf: BranchLeaf, regime: Regime) -> Optional[set[int]]:
    """Solve one 0-valid binary leaf; returns original-label true-set or None."""
    from . import kis as _kis
    from . import nand_impl as _nand_impl
    from . import turan as _turan
    from .hypergraph import Graph, Hypergraph

    inst = preprocess_easy(leaf.instance, leaf.k)
    k = leaf.k
    if _has_false(inst):
        return None
    if k == 0:
        if all(f.table[0] == 1 for f, _ in inst.constraints):
            return set(leaf.forced_true)
        return None
    if k > inst.n:
        return None

    if regime.kind == "Linear":
        comps = _eq_components(inst)
        weights = [len(c) for c in comps]
        picked = _subset_sum_pick([w if w <= k else k + 1 for w in weights], k)
        if picked is None:
            return None
        chosen = {inst.label_of(v) for i in picked for v in comps[i]}
        return chosen | set(leaf.forced_true)

    if regime.kind == "Subexponential":
        # Pruning fixes variables false, which leaves pinning constraints
        # behind; propagate those before reading off the implication order.
        inst2 = preprocess_easy(impl_prune(_eq_to_impl(inst), k), k)
        if _has_false(inst2):
            return None
        if k > inst2.n:
            return None
        structure = build_impl_structure(inst2)
        got = _closed_set_search(structure.descendants, k)
        if got is None:
            return None
        return {inst2.label_of(v) for v in got} | set(leaf.forced_true)

    # KIS and Clique leaves reduce to graphs of NAND edges, possibly with
    # implication structure on top.
    inst2 = _eq_to_impl(inst)
    if impl_edges(inst2):
        inst3 = preprocess_easy(impl_prune(inst2, k), k)
        if _has_false(inst3):
            return None
        if impl_edges(inst3):
            got_b = _nand_impl.solve_nand_impl(inst3, k)
            if not got_b:
                return None
            # Decision only from the pipeline; recover members by self-reduction.
            sol = _witness_on_nand_impl(inst3, k)
            return {inst3.label_of(v) for v in sol} | set(leaf.forced_true)
        inst2 = inst3
    edges = nand_pairs(inst2)
    g = Graph(inst2.n, tuple(edges))
    if k > g.n:
        return None
    if 2 * k * k * g.m <= g.n * g.n:
        got_g = _turan.find_k_is_sparse(g, k)
        if got_g is not None:
            return {inst2.label_of(v) for v in got_g} | set(leaf.forced_true)
    wrap = Hypergraph(g.n, tuple(g.edges))
    ok, found = _kis.decide_k_is(wrap, k, want_witness=True)
    if not ok:
        return None
    assert found is not None
    return {inst2.label_of(v) for v in found} | set(leaf.forced_true)


def _witness_on_nand_impl(inst: CspInstance, k: int) -> set[int]:
    """Extract a weight-k solution from a YES nand+impl instance by self-reduction."""
    from . import nand_impl as _nand_impl

    work = CspInstance(inst.n, inst.constraints, labels=tuple(range(1, inst.n + 1)))
    chosen: set[int] = set()
    budget = k
    while budget:
        progressed = False
        for v in range(1, work.n + 1):
            dropped = set_variables(work, {v: 0})
            if dropped is not None and _nand_impl.solve_nand_impl(dropped, budget):
                work = dropped
                progressed = True
                break
            taken = set_variables(work, {v: 1})
            if taken is None:
                continue
            if budget - 1 == 0 or _nand_impl.solve_nand_impl(taken, budget - 1):
                if budget - 1 == 0 and not all(
                    f.table[0] == 1 for f, _ in taken.constraints
                ):
                    continue
                chosen.add(work.label_of(v))
                work = taken
                budget -= 1
                progressed = True
                break
        assert progressed, "self-reduction stalled on a YES instance"
    return chosen


def solve_csp(phi: CspInstance, k: int, want_witness: bool = True) -> CspResult:
    """Decide weight-k satisfiability, routing by family and density.

    Binary instances go through the regime classifier; very sparse ones
    first try the free-variable shortcut.  Higher-arity instances get
    branch-and-bound, the sparse greedy solver, and an exhaustive
    fallback behind a size guard.  Any returned assignment is verified
    against `phi` before this function returns.
    """
    if k < 0:
        raise ValueError(f"negative weight budget {k}")
    # Work label-free so every assignment is in phi's own variable ids.
    phi = CspInstance(phi.n, phi.constraints)
    if k > phi.n:
        return CspResult(False, None, "budget exceeds variable count")
    if k == 0:
        if all(f.table[0] == 1 for f, _ in phi.constraints):
            return CspResult(True, () if want_witness else None, "weight zero")
        return CspResult(False, None, "weight zero")

    n_funcs = max(1, len(phi.functions))
    if phi.max_arity <= 2:
        leaves = branch_and_bound(phi, k)
        if 2 * k * n_funcs * phi.m < phi.n:
            for leaf in leaves:
                free = _free_variables(leaf.instance)
                if len(free) >= leaf.k:
                    sol = set(leaf.forced_true) | {
                        leaf.instance.label_of(v) for v in free[: leaf.k]
                    }
                    return CspResult(
                        True,
                        _verify(phi, sol, k) if want_witness else None,
                        "free variables",
                    )
        regime = classify_binary_family(phi.functions)
        for leaf in leaves:
            sol = _solve_leaf_binary(leaf, regime)
            if sol is not None:
                return CspResult(
                    True,
                    _verify(phi, sol, k) if want_witness else None,
                    f"regime {regime}",
                )
        return CspResult(False, None, f"regime {regime}")

    # Higher-arity route: make leaves 0-valid, try the sparse greedy
    # solver, fall back to bounded exhaustive search.
    from . import turan as _turan
    from .oracle import brute_solve_csp

    leaves = branch_and_bound(phi, k)
    needs_fallback: list[BranchLeaf] = []
    for leaf in leaves:
        got = _turan.sparse_csp_solve(leaf.instance, leaf.k)
        if got is _turan.NO_GUARANTEE:
            needs_fallback.append(leaf)
            continue
        if got is not None:
            sol = set(leaf.forced_true) | {leaf.instance.label_of(v) for v in got}
            return CspResult(
                True,
                _verify(phi, sol, k) if want_witness else None,
                "sparse greedy",
            )
        needs_fallback.append(leaf)
    for leaf in needs_fallback:
        got = brute_solve_csp(leaf.instance, leaf.k, cap=FALLBACK_CAP)
        if got is not None:
            sol = set(leaf.forced_true) | {leaf.instance.label_of(v) for v in got}
            return CspResult(
                True,
                _verify(phi, sol, k) if want_witness else None,
                "exhaustive fallback",
            )
    return CspResult(False, None, "exhaustive fallback")
