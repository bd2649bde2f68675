"""The parametric difference-constraint graph of an SMO program.

Every base SMO row (families C1-C4, L1, L2R, L3, FF, FS and the FIX/XW/XP
extensions) involves at most the variables ``Tc, s_i, T_i, D_j`` with
coefficients in {0, +/-1}.  Substituting the *event times*

* ``origin``       = 0,
* ``start[p]``     = ``s_p``,
* ``end[p]``       = ``s_p + T_p``,
* ``dep[n]``       = ``s_{p_n} + D_n``  (``p_n`` = controlling phase of n)

turns each row into a difference constraint ``head - tail <= a + b*Tc``
with ``b`` in {0, 1} -- a parametric constraint graph.  By the classic
result on difference constraints (CLRS 24.4), the system is feasible at
a fixed period ``t`` iff the graph with edge weights ``a + b*t`` has no
negative cycle; :mod:`repro.cycle.solver` answers every period question
on this graph.

Rows that do not reduce to a difference (extension families with non-unit
coefficients, or rows over unknown variables such as a setup-slack column)
are recorded in :attr:`ConstraintGraph.skipped`; dropping constraints only
enlarges the feasible set, so a period bound computed on the graph remains
a valid lower bound either way.

Graph construction is split into a *skeleton* (which edges exist, their
endpoints and ``b`` coefficients -- everything except the ``a`` values,
which come from constraint right-hand sides) and a cheap *materialize*
step that fills the numbers in.  Skeletons are cached in a bounded LRU
keyed by :func:`structure_fingerprint`, mirroring the compiled-kernel
structure cache of :mod:`repro.maxplus.compiled`, so the parametric
re-cost path (``with_rhs``/``recost_arc_delay``) and repeated diagnostics
over the same circuit never re-derive the substitution.  Callers that may
see the same program repeatedly should use :func:`constraint_graph_for`;
:func:`build_constraint_graph` is the uncached spelling.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, cast

from repro.circuit.graph import TimingGraph
from repro.core.constraints import TC, SMOProgram, d_var, s_var, t_var
from repro.lp.model import Sense

#: Node name of the zero reference (the paper's time origin).
ORIGIN = "origin"


def start_node(phase: str) -> str:
    return f"start[{phase}]"


def end_node(phase: str) -> str:
    return f"end[{phase}]"


def dep_node(sync: str) -> str:
    return f"dep[{sync}]"


@dataclass(frozen=True)
class DiffEdge:
    """One difference constraint ``head - tail <= a + b*Tc``.

    Stored as a graph edge ``tail -> head`` with parametric weight
    ``a + b*Tc``; ``constraint`` is the SMO row (or implicit bound) it came
    from and ``family`` its constraint family tag.  ``sign`` is the row
    multiplier that turned the row into the edge (``a = sign * rhs``:
    +1 for a ``<=`` half, -1 for a ``>=`` half, 0 for an implicit bound).
    """

    tail: str
    head: str
    a: float
    b: float
    constraint: str
    family: str
    sign: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "constraint": self.constraint,
            "family": self.family,
            "tail": self.tail,
            "head": self.head,
            "a": self.a,
            "b": self.b,
        }


@dataclass
class ConstraintGraph:
    """The parametric difference-constraint graph of one SMO program.

    ``tc_lower``/``tc_upper`` hold scalar bounds on ``Tc`` that reduced to
    constant rows (``XP``/``FIX`` and the implicit ``Tc >= 0``), as
    ``(value, constraint_name)`` pairs; ``contradictions`` holds constant
    rows that are false on their own (e.g. conflicting FIX values on
    ``Tc``); ``skipped`` lists rows that did not reduce to a difference.
    """

    nodes: list[str]
    edges: list[DiffEdge]
    tc_lower: list[tuple[float, str]] = field(default_factory=list)
    tc_upper: list[tuple[float, str]] = field(default_factory=list)
    contradictions: list[tuple[str, str]] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def tc_floor(self) -> float:
        """The largest scalar lower bound on Tc (at least 0)."""
        return max((v for v, _ in self.tc_lower), default=0.0)

    @property
    def tc_cap(self) -> float | None:
        """The smallest scalar upper bound on Tc, if any row gives one."""
        if not self.tc_upper:
            return None
        return min(v for v, _ in self.tc_upper)

    def cap_constraints(self, tol: float = 1e-12) -> list[str]:
        """Names of the rows that realize :attr:`tc_cap`."""
        cap = self.tc_cap
        if cap is None:
            return []
        return [name for v, name in self.tc_upper if v <= cap + tol]


# ----------------------------------------------------------------------
# Graph construction: skeleton (structure-cached) + materialize (cheap)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _EdgeTemplate:
    """A :class:`DiffEdge` minus its ``a`` value.

    ``row`` indexes the program constraint whose rhs supplies ``a`` (as
    ``sign * rhs``); implicit bounds (``row == -1``) have ``a == 0``.
    """

    tail: str
    head: str
    b: float
    constraint: str
    family: str
    row: int
    sign: float


@dataclass(frozen=True)
class _ScalarTemplate:
    """A constant row ``tc_coeff * Tc <= sign * rhs[row]``."""

    row: int
    sign: float
    tc_coeff: float
    name: str


@dataclass(frozen=True)
class GraphSkeleton:
    """Everything about a constraint graph except the rhs-derived numbers."""

    nodes: tuple[str, ...]
    edges: tuple[_EdgeTemplate, ...]
    scalars: tuple[_ScalarTemplate, ...]
    tc_nonneg: bool
    skipped: tuple[str, ...]


def event_substitution(
    graph: TimingGraph,
) -> dict[str, tuple[tuple[str, float], ...]]:
    """Each LP variable but ``Tc`` as a signed sum of event-time nodes.

    ``s_p = start[p]``, ``T_p = end[p] - start[p]`` and
    ``D_n = dep[n] - start[p_n]``; the keys come in node order (per
    phase its start then end, then one departure per synchronizer).
    """
    substitution: dict[str, tuple[tuple[str, float], ...]] = {}
    for phase in graph.phase_names:
        s_node, e_node = start_node(phase), end_node(phase)
        substitution[s_var(phase)] = ((s_node, 1.0),)
        substitution[t_var(phase)] = ((e_node, 1.0), (s_node, -1.0))
    for sync in graph.synchronizers:
        substitution[d_var(sync.name)] = (
            (dep_node(sync.name), 1.0),
            (start_node(sync.phase), -1.0),
        )
    return substitution


def _build_skeleton(smo: SMOProgram) -> GraphSkeleton:
    """Derive the event-time substitution and classify every row once."""
    graph = smo.graph
    substitution = event_substitution(graph)
    nodes = [ORIGIN] + [nodes_of[0][0] for nodes_of in substitution.values()]

    family_of = {name: tag for tag, names in smo.families.items() for name in names}
    edges: list[_EdgeTemplate] = []
    scalars: list[_ScalarTemplate] = []
    skipped: list[str] = []

    def add_le_row(name: str, terms: dict[str, float], row: int, sign: float) -> None:
        """One ``sign * row <= sign * rhs`` half -> edge or scalar template."""
        family = family_of.get(name, "?")
        coeffs: dict[str, float] = {}
        tc_coeff = 0.0
        for lp_var, coeff in terms.items():
            if lp_var == TC:
                tc_coeff += coeff
                continue
            nodes_of = substitution.get(lp_var)
            if nodes_of is None:
                skipped.append(name)
                return
            for node, node_sign in nodes_of:
                coeffs[node] = coeffs.get(node, 0.0) + coeff * node_sign
        coeffs = {n: c for n, c in coeffs.items() if c != 0.0}
        if not coeffs:
            # Constant row: tc_coeff * Tc <= sign * rhs.
            scalars.append(_ScalarTemplate(row, sign, tc_coeff, name))
            return
        heads = [n for n, c in coeffs.items() if c == 1.0]
        tails = [n for n, c in coeffs.items() if c == -1.0]
        if len(heads) + len(tails) != len(coeffs) or len(heads) > 1 or len(tails) > 1:
            skipped.append(name)
            return
        head = heads[0] if heads else ORIGIN
        tail = tails[0] if tails else ORIGIN
        edges.append(
            _EdgeTemplate(
                tail=tail,
                head=head,
                b=-tc_coeff,
                constraint=name,
                family=family,
                row=row,
                sign=sign,
            )
        )

    for row, con in enumerate(smo.program.constraints):
        terms = dict(con.lhs.terms)
        if con.sense is Sense.LE:
            add_le_row(con.name, terms, row, 1.0)
        elif con.sense is Sense.GE:
            add_le_row(con.name, {v: -c for v, c in terms.items()}, row, -1.0)
        else:  # EQ: both directions
            add_le_row(con.name, terms, row, 1.0)
            add_le_row(con.name, {v: -c for v, c in terms.items()}, row, -1.0)

    # Implicit nonnegativity bounds: C4 (Tc, s_i, T_i) and L3 (D_i).
    free = smo.program.free_variables
    for phase in graph.phase_names:
        if s_var(phase) not in free:
            edges.append(
                _EdgeTemplate(
                    tail=start_node(phase),
                    head=ORIGIN,
                    b=0.0,
                    constraint=f"C4[{s_var(phase)}]",
                    family="C4",
                    row=-1,
                    sign=0.0,
                )
            )
        if t_var(phase) not in free:
            edges.append(
                _EdgeTemplate(
                    tail=end_node(phase),
                    head=start_node(phase),
                    b=0.0,
                    constraint=f"C4[{t_var(phase)}]",
                    family="C4",
                    row=-1,
                    sign=0.0,
                )
            )
    for sync in graph.synchronizers:
        if d_var(sync.name) not in free:
            edges.append(
                _EdgeTemplate(
                    tail=dep_node(sync.name),
                    head=start_node(sync.phase),
                    b=0.0,
                    constraint=f"L3[{d_var(sync.name)}]",
                    family="L3",
                    row=-1,
                    sign=0.0,
                )
            )
    return GraphSkeleton(
        nodes=tuple(nodes),
        edges=tuple(edges),
        scalars=tuple(scalars),
        tc_nonneg=TC not in free,
        skipped=tuple(skipped),
    )


def _materialize(skeleton: GraphSkeleton, smo: SMOProgram) -> ConstraintGraph:
    """Fill a skeleton's ``a`` values from the program's current rhs."""
    constraints = smo.program.constraints
    cg = ConstraintGraph(nodes=list(skeleton.nodes), edges=[])
    for tpl in skeleton.edges:
        a = tpl.sign * constraints[tpl.row].rhs if tpl.row >= 0 else 0.0
        cg.edges.append(
            DiffEdge(
                tail=tpl.tail,
                head=tpl.head,
                a=a,
                b=tpl.b,
                constraint=tpl.constraint,
                family=tpl.family,
                sign=tpl.sign,
            )
        )
    for sc in skeleton.scalars:
        rhs = sc.sign * constraints[sc.row].rhs
        if sc.tc_coeff > 0.0:
            cg.tc_upper.append((rhs / sc.tc_coeff, sc.name))
        elif sc.tc_coeff < 0.0:
            cg.tc_lower.append((rhs / sc.tc_coeff, sc.name))
        elif rhs < 0.0:
            cg.contradictions.append((sc.name, f"0 <= {rhs:g} is false"))
    if skeleton.tc_nonneg:
        cg.tc_lower.append((0.0, f"C4[{TC}]"))
    cg.skipped = list(skeleton.skipped)
    return cg


def build_constraint_graph(smo: SMOProgram) -> ConstraintGraph:
    """Lower an SMO program to its parametric difference-constraint graph."""
    return _materialize(_build_skeleton(smo), smo)


_FINGERPRINT_KEY = "diffgraph_fingerprint"


def structure_fingerprint(smo: SMOProgram) -> str:
    """A digest of everything the graph *skeleton* depends on.

    Covers the timing graph's phase and synchronizer identities, every
    constraint's name, sense and coefficients, and the free-variable set --
    but **no** right-hand sides, so a re-cost copy (``with_rhs``) keeps the
    same fingerprint and hits the same cached skeleton.  The digest is
    memoized in :attr:`LinearProgram.structure_memo`, which mutation
    invalidates and ``with_rhs`` inherits.
    """
    program = smo.program
    cached = program.structure_memo.get(_FINGERPRINT_KEY)
    if isinstance(cached, str):
        return cached
    graph = smo.graph
    digest = hashlib.sha256()
    digest.update(",".join(graph.phase_names).encode())
    digest.update(b"\x00")
    for sync in graph.synchronizers:
        digest.update(f"{sync.name}|{sync.phase};".encode())
    digest.update(b"\x00")
    for con in program.constraints:
        digest.update(f"{con.name}|{con.sense.value}|".encode())
        for var, coeff in con.lhs.terms.items():
            digest.update(f"{var}={coeff!r},".encode())
        digest.update(b";")
    digest.update(b"\x00")
    for var in sorted(program.free_variables):
        digest.update(f"{var},".encode())
    key = digest.hexdigest()
    program.structure_memo[_FINGERPRINT_KEY] = key
    return key


_SKELETON_CACHE_SIZE = 128
_SKELETONS: "OrderedDict[str, GraphSkeleton]" = OrderedDict()
_GRAPH_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def constraint_graph_for(smo: SMOProgram) -> ConstraintGraph:
    """Memoized :func:`build_constraint_graph`.

    Two cache layers, mirroring :mod:`repro.maxplus.compiled`: the
    materialized graph is memoized on the ``smo`` instance (guarded by the
    program's row count, so appending rows invalidates it), and the
    skeleton is shared across instances through a bounded LRU keyed by
    :func:`structure_fingerprint` -- sweeps and re-cost copies pay only the
    O(edges) materialize step.
    """
    n_rows = len(smo.program.constraints)
    memo = smo.__dict__.get("_graph_memo")
    if memo is not None and memo[0] == n_rows:
        return cast(ConstraintGraph, memo[1])
    key = structure_fingerprint(smo)
    skeleton = _SKELETONS.get(key)
    if skeleton is None:
        _GRAPH_STATS["misses"] += 1
        skeleton = _build_skeleton(smo)
        _SKELETONS[key] = skeleton
        if len(_SKELETONS) > _SKELETON_CACHE_SIZE:
            _SKELETONS.popitem(last=False)
            _GRAPH_STATS["evictions"] += 1
    else:
        _GRAPH_STATS["hits"] += 1
        _SKELETONS.move_to_end(key)
    cg = _materialize(skeleton, smo)
    smo.__dict__["_graph_memo"] = (n_rows, cg)
    return cg


def graph_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters plus current size of the skeleton cache."""
    return dict(_GRAPH_STATS, size=len(_SKELETONS))


def clear_graph_cache() -> None:
    """Drop all cached skeletons and reset the counters (for tests)."""
    _SKELETONS.clear()
    for counter in _GRAPH_STATS:
        _GRAPH_STATS[counter] = 0

