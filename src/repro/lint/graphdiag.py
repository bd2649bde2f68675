"""Difference-constraint graph diagnostics over the SMO system.

Every base SMO row (families C1-C4, L1, L2R, L3, FF, FS and the FIX/XW/XP
extensions) involves at most the variables ``Tc, s_i, T_i, D_j`` with
coefficients in {0, +/-1}.  Substituting the *event times*

* ``origin``       = 0,
* ``start[p]``     = ``s_p``,
* ``end[p]``       = ``s_p + T_p``,
* ``dep[n]``       = ``s_{p_n} + D_n``  (``p_n`` = controlling phase of n)

turns each row into a difference constraint ``head - tail <= a + b*Tc``
with ``b`` in {0, 1} -- a parametric constraint graph.  Two classic results
then hold (cf. CLRS 24.4 and Karp 1978):

* the system is feasible at a fixed period ``t`` iff the graph with edge
  weights ``a + b*t`` has no negative cycle (Bellman-Ford), and a negative
  cycle *is* an infeasibility certificate naming the constraints on it;
* since every ``b >= 0``, the feasible set of ``Tc`` is upward closed and
  its infimum is ``max_C -A(C)/B(C)`` over cycles ``C`` with
  ``B(C) = sum b > 0`` -- computed here by Lawler-style ratio iteration
  with Karp's minimum-cycle-mean algorithm as the inner oracle.  When no
  row is skipped the encoding is complete, so this bound *equals* the
  LP-optimal cycle time without running any LP.

Rows that do not reduce to a difference (extension families with non-unit
coefficients, or rows over unknown variables such as a setup-slack column)
are recorded in :attr:`ConstraintGraph.skipped`; dropping constraints only
enlarges the feasible set, so the reported bound remains a valid lower
bound and certificates remain sound either way.

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
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, cast

from repro.circuit.graph import TimingGraph
from repro.core.constraints import (
    TC,
    ConstraintOptions,
    SMOProgram,
    build_program,
    d_var,
    s_var,
    t_var,
)
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
    from and ``family`` its constraint family tag.
    """

    tail: str
    head: str
    a: float
    b: float
    constraint: str
    family: str

    def weight(self, tc: float) -> float:
        return self.a + self.b * tc

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


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Proof that the constraint system cannot be satisfied.

    ``kind`` is ``"structural"`` (a negative cycle whose weight does not
    depend on Tc -- no period can fix it), ``"period"`` (a cycle that is
    negative at the pinned/capped period ``tc``: the cycle forces
    ``Tc >= required_tc`` but a scalar row caps it below that), or
    ``"contradiction"`` (a constant row that is false by itself).

    ``cycle`` lists the offending constraints as :class:`DiffEdge` records
    in cycle order; ``a_sum``/``b_sum`` are the cycle totals, so the cycle
    asserts ``0 <= a_sum + b_sum*Tc``.
    """

    kind: str
    message: str
    cycle: tuple[DiffEdge, ...] = ()
    tc: float | None = None
    required_tc: float | None = None
    pinned_by: tuple[str, ...] = ()

    @property
    def constraints(self) -> tuple[str, ...]:
        return tuple(e.constraint for e in self.cycle)

    @property
    def a_sum(self) -> float:
        return sum(e.a for e in self.cycle)

    @property
    def b_sum(self) -> float:
        return sum(e.b for e in self.cycle)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.message,
            "tc": self.tc,
            "required_tc": self.required_tc,
            "pinned_by": list(self.pinned_by),
            "cycle": [e.to_dict() for e in self.cycle],
            "a_sum": self.a_sum,
            "b_sum": self.b_sum,
        }

    def format(self) -> str:
        lines = [f"infeasible ({self.kind}): {self.message}"]
        for edge in self.cycle:
            bound = f"{edge.a:g}"
            if edge.b:
                bound += f" + {edge.b:g}*Tc"
            lines.append(
                f"  {edge.constraint} [{edge.family}]: "
                f"{edge.head} - {edge.tail} <= {bound}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class TcBound:
    """A provable lower bound on the cycle time, with its critical cycle.

    ``cycle`` is the cycle that forces the bound (``Tc >= -A/B`` over its
    edge totals); it is empty when the bound degenerates to a scalar floor
    (e.g. a circuit whose constraints put no cycle pressure on Tc).
    ``exact`` is True when no constraint row was skipped while building the
    graph -- the encoding is then complete and the bound equals the
    LP-optimal cycle time.
    """

    value: float
    cycle: tuple[DiffEdge, ...] = ()
    iterations: int = 0
    exact: bool = True

    @property
    def constraints(self) -> tuple[str, ...]:
        return tuple(e.constraint for e in self.cycle)

    def to_dict(self) -> dict[str, Any]:
        return {
            "value": self.value,
            "iterations": self.iterations,
            "exact": self.exact,
            "cycle": [e.to_dict() for e in self.cycle],
        }


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

    family_of = {
        name: tag for tag, names in smo.families.items() for name in names
    }
    edges: list[_EdgeTemplate] = []
    scalars: list[_ScalarTemplate] = []
    skipped: list[str] = []

    def add_le_row(
        name: str, terms: dict[str, float], row: int, sign: float
    ) -> None:
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
            _EdgeTemplate(tail=tail, head=head, b=-tc_coeff,
                          constraint=name, family=family, row=row, sign=sign)
        )

    for row, con in enumerate(smo.program.constraints):
        terms = dict(con.lhs.terms)
        if con.sense is Sense.LE:
            add_le_row(con.name, terms, row, 1.0)
        elif con.sense is Sense.GE:
            add_le_row(
                con.name, {v: -c for v, c in terms.items()}, row, -1.0
            )
        else:  # EQ: both directions
            add_le_row(con.name, terms, row, 1.0)
            add_le_row(
                con.name, {v: -c for v, c in terms.items()}, row, -1.0
            )

    # Implicit nonnegativity bounds: C4 (Tc, s_i, T_i) and L3 (D_i).
    free = smo.program.free_variables
    for phase in graph.phase_names:
        if s_var(phase) not in free:
            edges.append(
                _EdgeTemplate(tail=start_node(phase), head=ORIGIN, b=0.0,
                              constraint=f"C4[{s_var(phase)}]", family="C4",
                              row=-1, sign=0.0)
            )
        if t_var(phase) not in free:
            edges.append(
                _EdgeTemplate(tail=end_node(phase), head=start_node(phase),
                              b=0.0, constraint=f"C4[{t_var(phase)}]",
                              family="C4", row=-1, sign=0.0)
            )
    for sync in graph.synchronizers:
        if d_var(sync.name) not in free:
            edges.append(
                _EdgeTemplate(tail=dep_node(sync.name),
                              head=start_node(sync.phase), b=0.0,
                              constraint=f"L3[{d_var(sync.name)}]",
                              family="L3", row=-1, sign=0.0)
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
            DiffEdge(tail=tpl.tail, head=tpl.head, a=a, b=tpl.b,
                     constraint=tpl.constraint, family=tpl.family)
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


# ----------------------------------------------------------------------
# Negative-cycle detection (Bellman-Ford)
# ----------------------------------------------------------------------
def find_negative_cycle(
    cg: ConstraintGraph, tc: float, tol: float = 1e-9
) -> tuple[DiffEdge, ...] | None:
    """A negative cycle of the graph at period ``tc``, or None.

    Standard Bellman-Ford with all distances initialized to 0 (equivalent
    to a virtual source wired to every node), relaxing for |V| rounds; any
    node that still relaxes on the final round lies on -- or downstream
    of -- a negative cycle, which walking the predecessor edges |V| times
    is guaranteed to enter.
    """
    edges = cg.edges
    if not edges:
        return None
    dist = {node: 0.0 for node in cg.nodes}
    pred: dict[str, DiffEdge] = {}
    n = len(cg.nodes)
    flagged: str | None = None
    for round_index in range(n):
        updated = False
        for edge in edges:
            cand = dist[edge.tail] + edge.weight(tc)
            if cand < dist[edge.head] - tol:
                dist[edge.head] = cand
                pred[edge.head] = edge
                updated = True
                flagged = edge.head
        if not updated:
            return None
    if flagged is None:  # pragma: no cover - updated implies flagged
        return None
    node = flagged
    for _ in range(n):
        node = pred[node].tail
    cycle: list[DiffEdge] = []
    cursor = node
    while True:
        edge = pred[cursor]
        cycle.append(edge)
        cursor = edge.tail
        if cursor == node:
            break
    cycle.reverse()
    return tuple(cycle)


def structural_negative_cycle(
    cg: ConstraintGraph, tol: float = 1e-9
) -> tuple[DiffEdge, ...] | None:
    """A negative cycle among the Tc-independent (``b == 0``) edges.

    Because every ``b`` is nonnegative, such a cycle stays negative at
    *every* period -- the infeasibility is structural, not a matter of
    clocking faster or slower.
    """
    sub = ConstraintGraph(
        nodes=cg.nodes, edges=[e for e in cg.edges if e.b == 0.0]
    )
    return find_negative_cycle(sub, 0.0, tol=tol)


# ----------------------------------------------------------------------
# Karp's minimum cycle mean and the parametric Tc bound
# ----------------------------------------------------------------------
def karp_min_cycle_mean(
    cg: ConstraintGraph, tc: float
) -> tuple[float, tuple[DiffEdge, ...]] | None:
    """Karp's minimum-cycle-mean at period ``tc``.

    Returns ``(mean, cycle)`` for a minimum-mean cycle of the graph with
    weights ``a + b*tc``, or None when the graph is acyclic.  ``D[k][v]``
    is the minimum weight of a k-edge walk ending at v (from anywhere:
    ``D[0]`` is identically 0), and Karp's theorem gives the minimum mean
    as ``min_v max_k (D[n][v] - D[k][v]) / (n - k)``.  The witness cycle is
    recovered from the predecessor walk of the minimizing node: an n-edge
    walk over n vertices must repeat a vertex, and the best repeated
    segment along it realizes a (minimum-mean) cycle.
    """
    n = len(cg.nodes)
    if n == 0 or not cg.edges:
        return None
    index = {node: i for i, node in enumerate(cg.nodes)}
    inf = math.inf
    dist = [[inf] * n for _ in range(n + 1)]
    pred: list[list[DiffEdge | None]] = [[None] * n for _ in range(n + 1)]
    dist[0] = [0.0] * n
    for k in range(1, n + 1):
        row_prev, row_k, pred_k = dist[k - 1], dist[k], pred[k]
        for edge in cg.edges:
            cand = row_prev[index[edge.tail]]
            if cand == inf:
                continue
            cand += edge.weight(tc)
            h = index[edge.head]
            if cand < row_k[h]:
                row_k[h] = cand
                pred_k[h] = edge
    best_mean = inf
    best_v = -1
    for v in range(n):
        if dist[n][v] == inf:
            continue
        worst = -inf
        for k in range(n):
            if dist[k][v] == inf:
                continue
            ratio = (dist[n][v] - dist[k][v]) / (n - k)
            if ratio > worst:
                worst = ratio
        if worst < best_mean:
            best_mean = worst
            best_v = v
    if best_v < 0:
        return None

    # Reconstruct the n-edge predecessor walk ending at best_v, then pick
    # the minimum-mean cycle among its repeated-vertex segments.
    walk_nodes = [best_v]
    walk_edges: list[DiffEdge | None] = []
    node = best_v
    for k in range(n, 0, -1):
        edge = pred[k][node]
        if edge is None:
            break
        walk_edges.append(edge)
        node = index[edge.tail]
        walk_nodes.append(node)
    walk_nodes.reverse()
    walk_edges.reverse()
    seen: dict[int, int] = {}
    best_cycle: tuple[DiffEdge, ...] = ()
    cycle_mean = inf
    for pos, v in enumerate(walk_nodes):
        if v in seen:
            segment = [e for e in walk_edges[seen[v]:pos] if e is not None]
            if segment:
                mean = sum(e.weight(tc) for e in segment) / len(segment)
                if mean < cycle_mean:
                    cycle_mean = mean
                    best_cycle = tuple(segment)
        seen[v] = pos
    return best_mean, best_cycle


def tc_lower_bound(
    cg: ConstraintGraph, tol: float = 1e-9, max_iterations: int = 1000
) -> TcBound:
    """The infimum of feasible periods, by Karp-driven ratio iteration.

    Starting from the scalar floor, repeatedly find a minimum-mean cycle at
    the current period ``t``; a negative mean exhibits a cycle with
    ``A + B*t < 0``, i.e. a proof that ``Tc >= -A/B > t``, so ``t`` jumps
    there.  The candidate periods range over the finite set of cycle ratios
    and increase strictly, so the iteration terminates at
    ``max_C -A(C)/B(C)`` -- the exact feasibility threshold of the encoded
    system.  A negative cycle with ``B == 0`` means no period helps; the
    returned bound is then infinite (see :func:`structural_negative_cycle`
    for the certificate).
    """
    t = cg.tc_floor
    best_cycle: tuple[DiffEdge, ...] = ()
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        found = karp_min_cycle_mean(cg, t)
        if found is None:
            break
        mean, cycle = found
        scale = max(1.0, abs(t))
        if mean >= -tol * scale or not cycle:
            break
        b_sum = sum(e.b for e in cycle)
        a_sum = sum(e.a for e in cycle)
        if b_sum <= 0.0:
            return TcBound(
                value=math.inf, cycle=cycle, iterations=iterations,
                exact=not cg.skipped,
            )
        candidate = -a_sum / b_sum
        if candidate <= t + 1e-15 * scale:
            break
        t = candidate
        best_cycle = cycle
    return TcBound(
        value=t, cycle=best_cycle, iterations=iterations,
        exact=not cg.skipped,
    )


# ----------------------------------------------------------------------
# Top-level diagnosis
# ----------------------------------------------------------------------
@dataclass
class GraphDiagnostics:
    """Outcome of the pre-solve constraint-graph pass.

    ``certificate`` is set when the system is provably infeasible;
    ``bound`` always carries the Tc lower bound (infinite when
    structurally infeasible).  ``tc_cap`` is the tightest scalar upper
    bound on Tc, when the options pin or cap the period.
    """

    certificate: InfeasibilityCertificate | None
    bound: TcBound
    tc_cap: float | None
    graph: ConstraintGraph

    @property
    def feasible(self) -> bool:
        return self.certificate is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "feasible": self.feasible,
            "certificate": None
            if self.certificate is None
            else self.certificate.to_dict(),
            "tc_lower_bound": self.bound.to_dict(),
            "tc_cap": self.tc_cap,
            "nodes": len(self.graph.nodes),
            "edges": len(self.graph.edges),
            "skipped_rows": list(self.graph.skipped),
        }


def diagnose(
    graph: TimingGraph,
    options: ConstraintOptions | None = None,
    smo: SMOProgram | None = None,
    tol: float = 1e-9,
) -> GraphDiagnostics:
    """Run the full pre-solve graph analysis on one circuit.

    Order of checks: constant-row contradictions, then structural negative
    cycles (infeasible at every period), then the parametric lower bound
    against any scalar period cap (infeasible at the pinned period).
    """
    if smo is None:
        smo = build_program(graph, options or ConstraintOptions())
    cg = constraint_graph_for(smo)
    cap = cg.tc_cap

    if cg.contradictions:
        name, detail = cg.contradictions[0]
        certificate = InfeasibilityCertificate(
            kind="contradiction",
            message=f"constraint {name} is unsatisfiable: {detail}",
        )
        bound = TcBound(value=math.inf, exact=not cg.skipped)
        return GraphDiagnostics(certificate, bound, cap, cg)

    structural = structural_negative_cycle(cg, tol=tol)
    if structural is not None:
        weight = sum(e.a for e in structural)
        certificate = InfeasibilityCertificate(
            kind="structural",
            message=(
                "negative cycle independent of Tc "
                f"(total weight {weight:g}): no clock period can satisfy "
                f"{', '.join(e.constraint for e in structural)}"
            ),
            cycle=structural,
        )
        bound = TcBound(value=math.inf, cycle=structural,
                        exact=not cg.skipped)
        return GraphDiagnostics(certificate, bound, cap, cg)

    bound = tc_lower_bound(cg, tol=tol)
    certificate = None
    if cap is not None:
        cycle_at_cap = find_negative_cycle(cg, cap, tol=tol)
        if cycle_at_cap is not None:
            a_sum = sum(e.a for e in cycle_at_cap)
            b_sum = sum(e.b for e in cycle_at_cap)
            required = -a_sum / b_sum if b_sum > 0 else math.inf
            pinned_by = tuple(cg.cap_constraints())
            certificate = InfeasibilityCertificate(
                kind="period",
                message=(
                    f"cycle through {', '.join(e.constraint for e in cycle_at_cap)} "
                    f"requires Tc >= {required:g}, but "
                    f"{', '.join(pinned_by) or 'the scalar bounds'} "
                    f"cap Tc at {cap:g}"
                ),
                cycle=cycle_at_cap,
                tc=cap,
                required_tc=required,
                pinned_by=pinned_by,
            )
    if certificate is None and cap is not None and cap < cg.tc_floor - tol:
        floor_rows = [name for v, name in cg.tc_lower if v >= cg.tc_floor - tol]
        certificate = InfeasibilityCertificate(
            kind="contradiction",
            message=(
                f"scalar bounds conflict: {', '.join(floor_rows)} force "
                f"Tc >= {cg.tc_floor:g} but {', '.join(cg.cap_constraints())} "
                f"cap Tc at {cap:g}"
            ),
            tc=cap,
            required_tc=cg.tc_floor,
            pinned_by=tuple(cg.cap_constraints()),
        )
    return GraphDiagnostics(certificate, bound, cap, cg)
