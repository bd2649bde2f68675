"""Parametric critical-cycle search and schedule recovery.

The search is Lawler's cycle-ratio iteration with a Howard-style policy
flavour: at the current period ``t``, a vectorized Bellman-Ford either
proves feasibility (no negative cycle under weights ``a + b*t``) or
extracts a negative cycle ``C`` from its predecessor graph; since every
``b >= 0``, that cycle asserts ``Tc >= -A(C)/B(C) > t``, so ``t`` jumps
there -- each extracted cycle playing the role of the improved policy.
Candidate periods range over the finite set of cycle ratios and increase
strictly, so the iteration terminates at the exact feasibility threshold
of the encoded system.  Should the jumps ever crawl (adversarial graphs
with many near-identical ratios), a binary search brackets the optimum
to a narrow interval first and the ratio jumps finish exactly from
there.

At the optimal period the final Bellman-Ford potentials (every node
initialized to 0 -- a virtual source wired everywhere) satisfy all
encoded difference constraints; shifting them so ``origin = 0`` and
undoing the event-time substitution yields values for every LP variable.
The point is then *certified* against every row of the original program
(including any rows the graph lowering skipped, and sign bounds): since
the graph optimum is a relaxation lower bound, a certified-feasible
point at that objective **is** the LP optimum -- no simplex required.
If certification fails, the graph under-constrained the program and the
solver transparently falls back to the revised simplex.

A program whose period is pinned (the compact tie-break pass of
Algorithm MLP) has no period to search; its linear objective is solved
as the dual min-cost flow on the same graph instead, and the greatest
point of the optimal face is returned (:func:`_solve_pinned`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.core.constraints import TC, SMOProgram, d_var, s_var, t_var
from repro.cycle.compiled import (
    CompiledCycleGraph,
    CycleStructure,
    compile_cycle_graph,
    with_reversed_edges,
)
from repro.cycle.graph import (
    ORIGIN,
    constraint_graph_for,
    dep_node,
    end_node,
    event_substitution,
    start_node,
    structure_fingerprint,
)
from repro.errors import SolverError
from repro.lp.model import LinearProgram, Sense
from repro.lp.result import LPResult, LPStatus, attach_slacks
from repro.obs import metrics, trace

_I64 = npt.NDArray[np.int64]
_F64 = npt.NDArray[np.float64]

#: Relative feasibility tolerance of the Bellman-Ford oracle.
TOL = 1e-9
#: Tolerance for accepting the decoded point against the original rows.
CERTIFY_TOL = 1e-7
#: Ratio jumps before the binary-search bracket kicks in.
BISECT_AFTER = 24
#: Backend used when the graph relaxation cannot certify the optimum.
FALLBACK_BACKEND = "revised"


def _fallback_backend(program: LinearProgram) -> str:
    """The simplex that answers for the cycle backend on ``program``.

    The dense revised solver at paper scale (bit-stable against the
    existing golden results); the sparse revised solver above the
    dense-materialization threshold, where a dense basis inverse would
    be an O(m^2) allocation.
    """
    from repro.lp.backends import AUTO_SPARSE_ROWS

    if len(program) > AUTO_SPARSE_ROWS:
        return "sparse"
    return FALLBACK_BACKEND


@dataclass(frozen=True)
class _BFOutcome:
    """One Bellman-Ford run: a distance vector or a negative cycle."""

    feasible: bool
    dist: _F64 | None
    cycle: tuple[int, ...]  #: edge indices in cycle order, lowest first
    rounds: int


@dataclass(frozen=True)
class CyclePeriod:
    """Outcome of the parametric search.

    ``status`` is ``"optimal"`` (``value`` is the minimum feasible period
    and ``dist`` its witnessing potentials), ``"structural"`` (a negative
    cycle with ``B == 0`` -- no period is feasible), ``"contradiction"``
    (a constant row is false), or ``"capped"`` (the cycles force
    ``Tc >= value`` but a scalar row caps the period below that).
    ``cycle`` holds the critical (last binding) cycle as edge indices
    into the compiled graph's original edge order.
    """

    status: str
    value: float
    dist: _F64 | None
    cycle: tuple[int, ...]
    jumps: int
    bisections: int
    bf_rounds: int
    message: str = ""


def _predecessor_cycle(
    pred: _I64, in_tail: _I64, n: int
) -> tuple[int, ...] | None:
    """A cycle in the predecessor graph, as head-sorted edge slots.

    Classic Bellman-Ford fact: whenever the predecessor pointers contain
    a cycle (at any point during relaxation), that cycle has negative
    weight.  Detection is vectorized by pointer doubling over the
    successor map ``v -> tail(pred[v])`` with an absorbing terminal for
    rootless nodes; extraction then walks ``n`` predecessor hops from any
    surviving node, which is guaranteed to land on the cycle.
    """
    succ = np.where(pred >= 0, in_tail[np.maximum(pred, 0)], n)
    chain = np.append(succ, n).astype(np.int64)
    hops = 1
    while hops < n:
        chain = chain[chain]
        hops *= 2
    live = np.flatnonzero(chain[:n] != n)
    if live.size == 0:
        return None
    node = int(live[0])
    for _ in range(n):
        node = int(in_tail[pred[node]])
    start = node
    slots: list[int] = []
    while True:
        slot = int(pred[node])
        slots.append(slot)
        node = int(in_tail[slot])
        if node == start:
            break
    slots.reverse()
    return tuple(slots)


def _bellman_ford(
    comp: CompiledCycleGraph,
    t: float,
    tol: float = TOL,
    source: int | None = None,
) -> _BFOutcome:
    """Vectorized Bellman-Ford at period ``t`` over the CSR arrays.

    All distances start at 0 (virtual source), so the result is the
    greatest potential vector ``<= 0`` satisfying every edge -- exactly
    what schedule recovery needs.  With a ``source`` node, distances
    start at ``+inf`` except 0 there, so the result is the greatest
    solution with that node at 0 (``inf`` where nothing bounds a node).
    One round is two ``minimum.reduceat`` sweeps over the head-sorted
    edges; a predecessor-graph cycle check runs periodically so
    infeasible periods are detected long before the |V|-round worst
    case.  A negative cycle is rotated to start at its lowest original
    edge index, so its listing does not depend on where the predecessor
    walk entered it.
    """
    st = comp.structure
    n = st.n_nodes
    m = st.n_edges
    if source is None:
        dist = np.zeros(n)
    else:
        dist = np.full(n, np.inf)
        dist[source] = 0.0
    if m == 0:
        return _BFOutcome(True, dist, (), 0)
    w = comp.a_in + st.b_in * t
    pred = np.full(n, -1, dtype=np.int64)
    slots = np.arange(m, dtype=np.int64)
    eps = tol * max(1.0, abs(t))
    check_every = 32
    max_rounds = 3 * n + 2
    for rounds in range(1, max_rounds + 1):
        cand = dist[st.in_tail] + w
        seg_min = np.minimum.reduceat(cand, st.red_starts)
        improved = seg_min < dist[st.red_heads] - eps
        if not improved.any():
            return _BFOutcome(True, dist, (), rounds)
        seg_full = np.repeat(seg_min, st.red_counts)
        seg_argmin = np.minimum.reduceat(
            np.where(cand <= seg_full, slots, m), st.red_starts
        )
        heads = st.red_heads[improved]
        dist[heads] = seg_min[improved]
        pred[heads] = seg_argmin[improved]
        if rounds % check_every == 0 or rounds >= n:
            cycle_slots = _predecessor_cycle(pred, st.in_tail, n)
            if cycle_slots is not None:
                cycle = [int(st.order[s]) for s in cycle_slots]
                first = cycle.index(min(cycle))
                canonical = tuple(cycle[first:] + cycle[:first])
                return _BFOutcome(False, None, canonical, rounds)
    raise SolverError(  # pragma: no cover - relaxation must settle by 3|V|
        f"Bellman-Ford did not settle within {max_rounds} rounds at t={t!r}"
    )


def _cycle_totals(
    comp: CompiledCycleGraph, cycle: tuple[int, ...]
) -> tuple[float, float]:
    idx = np.asarray(cycle, dtype=np.int64)
    return float(comp.a[idx].sum()), float(comp.structure.b[idx].sum())


def minimum_feasible_period(
    comp: CompiledCycleGraph,
    tol: float = TOL,
    max_jumps: int = 1000,
    bisect_after: int = BISECT_AFTER,
) -> CyclePeriod:
    """The minimum feasible period of a compiled constraint graph.

    Ratio jumps from the scalar floor; after ``bisect_after`` jumps a
    feasible upper bound (``floor + sum of negative edge weights``) seeds
    a binary search that shrinks the bracket before the jumps finish
    exactly.  Scalar caps and constant-row contradictions end the search
    early, as ``"capped"`` and ``"contradiction"``.
    """
    cg = comp.graph
    if cg.contradictions:
        name, detail = cg.contradictions[0]
        return CyclePeriod(
            "contradiction", math.inf, None, (), 0, 0, 0,
            f"constraint {name} is unsatisfiable: {detail}",
        )
    t = comp.tc_floor
    cap = comp.tc_cap
    if cap is not None and cap < t - tol * max(1.0, abs(t)):
        return CyclePeriod(
            "capped", t, None, (), 0, 0, 0,
            f"scalar bounds cap Tc at {cap:g} below the floor {t:g}",
        )
    hi: float | None = None  # known-feasible period (bisection bracket)
    jumps = bisections = bf_rounds = 0
    critical: tuple[int, ...] = ()
    boost = 1.0
    while True:
        out = _bellman_ford(comp, t, tol * boost)
        bf_rounds += out.rounds
        if out.feasible:
            return CyclePeriod(
                "optimal", t, out.dist, critical,
                jumps, bisections, bf_rounds,
            )
        a_sum, b_sum = _cycle_totals(comp, out.cycle)
        scale = max(1.0, abs(t))
        if b_sum <= tol:
            return CyclePeriod(
                "structural", math.inf, None, out.cycle,
                jumps, bisections, bf_rounds,
                "negative cycle independent of Tc",
            )
        candidate = -a_sum / b_sum
        if candidate <= t + 1e-15 * scale:
            # Numerical stall: the cycle is negative only within noise of
            # the current period.  Coarsen the oracle tolerance and retry;
            # the certification pass downstream still guards the answer.
            boost *= 10.0
            if boost > 1e6:  # pragma: no cover - would need degenerate data
                raise SolverError(
                    f"cycle-ratio search stalled at t={t!r}"
                )
            continue
        jumps += 1
        critical = out.cycle
        t = candidate
        if cap is not None and t > cap + tol * scale:
            return CyclePeriod(
                "capped", t, None, out.cycle,
                jumps, bisections, bf_rounds,
                f"cycles require Tc >= {t:g} but scalar bounds cap it at {cap:g}",
            )
        if jumps == bisect_after and hi is None:
            # Feasible upper bound: every cycle has A >= -sum(max(0, -a))
            # and B >= 1 when Tc-dependent, so this period kills them all.
            hi = comp.tc_floor + float(
                np.maximum(-comp.a, 0.0).sum()
            ) + 1.0
            lo = t
            while hi - lo > 1e-6 * max(1.0, abs(hi)):
                mid = 0.5 * (lo + hi)
                probe = _bellman_ford(comp, mid, tol)
                bf_rounds += probe.rounds
                bisections += 1
                if probe.feasible:
                    hi = mid
                else:
                    a_mid, b_mid = _cycle_totals(comp, probe.cycle)
                    if b_mid <= tol:
                        return CyclePeriod(
                            "structural", math.inf, None, probe.cycle,
                            jumps, bisections, bf_rounds,
                            "negative cycle independent of Tc",
                        )
                    lo = max(mid, -a_mid / b_mid)
                    critical = probe.cycle
            t = lo
        if jumps > max_jumps:  # pragma: no cover - finite ratio set
            raise SolverError("cycle-ratio search did not converge")


# ----------------------------------------------------------------------
# Schedule recovery and certification
# ----------------------------------------------------------------------
def _recover_values(
    comp: CompiledCycleGraph, smo: SMOProgram, t: float, dist: _F64
) -> dict[str, float]:
    """Undo the event-time substitution at the optimal potentials."""
    st = comp.structure
    index = st.index
    x = dist - dist[index[ORIGIN]]
    values: dict[str, float] = {TC: t}
    for phase in smo.graph.phase_names:
        xs = float(x[index[start_node(phase)]])
        xe = float(x[index[end_node(phase)]])
        values[s_var(phase)] = xs
        values[t_var(phase)] = xe - xs
    for sync in smo.graph.synchronizers:
        xd = float(x[index[dep_node(sync.name)]])
        values[d_var(sync.name)] = xd - float(
            x[index[start_node(sync.phase)]]
        )
    for var in smo.program.variables:
        values.setdefault(var, 0.0)
    return values


def _max_violation(
    program: LinearProgram, values: dict[str, float]
) -> tuple[float, str]:
    """Worst violation of the point across all rows and sign bounds."""
    worst, name = 0.0, ""
    free = program.free_variables
    for var in program.variables:
        if var not in free:
            below = -values.get(var, 0.0)
            if below > worst:
                worst, name = below, f"bound[{var}]"
    for con in program.constraints:
        violation = con.violation(values)
        if violation > worst:
            worst, name = violation, con.name
    return worst, name


def _tc_objective_coeff(program: LinearProgram) -> float | None:
    """The coefficient ``c`` when the objective is ``c*Tc + const``."""
    terms = program.objective.terms
    if set(terms) == {TC} and terms[TC] > 0.0:
        return terms[TC]
    return None


def _critical_duals(
    program: LinearProgram,
    comp: CompiledCycleGraph,
    period: CyclePeriod,
    objective_coeff: float,
) -> tuple[dict[str, float] | None, dict[str, float], str]:
    """Certified shadow prices of a ``min c*Tc`` program, or why not.

    At the optimum ``Tc = -A(C)/B(C)`` for the critical cycle ``C``, and
    ``A(C)`` sums ``sign_e * rhs`` over the cycle's edges, so the price
    of row ``r`` is ``-c * (sum of sign_e over C's edges from r) / B(C)``.
    With no cycle the scalar floor ``Tc >= rhs/coeff`` binds and its row
    carries the whole price ``c/coeff``.  Like the primal point, the
    multipliers are then checked against the program itself: the sign
    condition of every row's sense, dual feasibility (reduced costs
    ``c - A^T y`` nonnegative, and zero on free variables) and
    ``b.y + constant`` equal to the objective.  Returns the duals of
    every row (zero off the support), the check residuals, and the
    reason when a check fails.
    """
    support: dict[str, float] = {}
    floor_row = ""
    if period.cycle:
        _, b_sum = _cycle_totals(comp, period.cycle)
        for i in period.cycle:
            edge = comp.graph.edges[i]
            if edge.sign:
                support[edge.constraint] = (
                    support.get(edge.constraint, 0.0)
                    - objective_coeff * edge.sign / b_sum
                )
    elif comp.graph.tc_lower:
        _, floor_row = max(comp.graph.tc_lower)
    objective = program.objective
    duals: dict[str, float] = {}
    reduced = objective.terms
    tol = CERTIFY_TOL * max(1.0, abs(objective_coeff))
    dual_value = objective.constant
    wrong_sign = ""
    for con in program.constraints:
        if con.name == floor_row:
            support[con.name] = objective_coeff / con.lhs.coefficient(TC)
        y = duals[con.name] = support.get(con.name, 0.0)
        if not y:
            continue
        if (con.sense is Sense.LE and y > tol) or (
            con.sense is Sense.GE and y < -tol
        ):
            wrong_sign = wrong_sign or con.name
        dual_value += y * (con.rhs - con.lhs.constant)
        for var, coeff in con.lhs.terms.items():
            reduced[var] = reduced.get(var, 0.0) - y * coeff
    free = program.free_variables
    violation = max(
        (abs(d) if var in free else -d for var, d in reduced.items()),
        default=0.0,
    )
    gap = abs(dual_value - (objective_coeff * period.value + objective.constant))
    residuals = {"dual_violation": max(0.0, violation), "duality_gap": gap}
    if wrong_sign:
        return None, residuals, f"the price of {wrong_sign} has the wrong sign"
    if violation > tol:
        return None, residuals, (
            f"the cycle duals violate dual feasibility by {violation:.3g}"
        )
    if gap > CERTIFY_TOL * max(1.0, abs(dual_value)):
        return None, residuals, (
            f"the cycle duals give b.y = {dual_value!r}, not the optimum"
        )
    return duals, residuals, ""


def _certify_period(
    program: LinearProgram,
    smo: SMOProgram,
    comp: CompiledCycleGraph,
    period: CyclePeriod,
    objective_coeff: float,
) -> tuple[LPResult | None, str | None]:
    """The LP answer of a parametric search, or why it cannot be one."""
    if period.status != "optimal":
        # The graph is a relaxation of the LP: if *it* is infeasible,
        # the LP certainly is -- report that without any fallback.
        return LPResult(
            status=LPStatus.INFEASIBLE,
            backend="cycle",
            iterations=period.jumps,
            extra={
                "cycle": {
                    "used": True,
                    "status": period.status,
                    "message": period.message,
                    "jumps": period.jumps,
                    "bisections": period.bisections,
                    "bf_rounds": period.bf_rounds,
                    "cycle_constraints": [
                        comp.structure.constraints[i] for i in period.cycle
                    ],
                }
            },
        ), None
    assert period.dist is not None
    values = _recover_values(comp, smo, period.value, period.dist)
    worst, worst_row = _max_violation(program, values)
    if worst > CERTIFY_TOL * max(1.0, abs(period.value)):
        return None, (
            f"decoded schedule violates {worst_row} by {worst:.3g}: "
            f"the cycle bound {period.value!r} under-constrains the LP"
        )
    duals, residuals, why = _critical_duals(
        program, comp, period, objective_coeff
    )
    if duals is None:
        return None, why
    result = LPResult(
        status=LPStatus.OPTIMAL,
        objective=objective_coeff * period.value + program.objective.constant,
        values=values,
        duals=duals,
        iterations=period.jumps,
        backend="cycle",
        extra={
            "cycle": {
                "used": True,
                "tc": period.value,
                "jumps": period.jumps,
                "bisections": period.bisections,
                "bf_rounds": period.bf_rounds,
                "certified_rows": len(program.constraints),
                "max_violation": worst,
                **residuals,
                "critical_cycle": [
                    comp.structure.constraints[i] for i in period.cycle
                ],
                "skipped_rows": list(comp.graph.skipped),
            }
        },
    )
    attach_slacks(result, program)
    return result, None


# ----------------------------------------------------------------------
# Pinned period: the linear objective as a min-cost flow
# ----------------------------------------------------------------------
def _objective_supplies(
    program: LinearProgram, smo: SMOProgram, index: dict[str, int]
) -> tuple[_F64 | None, str]:
    """Node supplies of the objective under the event-time substitution.

    The objective's coefficient on each event time, so that it reads
    ``sum(supply[v] * x[v])``; ``origin`` (fixed at 0) takes the balance.
    Returns ``None`` and the reason when a term is not an integer
    multiple of a graph variable.
    """
    substitution = event_substitution(smo.graph)
    supply = np.zeros(len(index))
    for name, coeff in program.objective.terms.items():
        if name == TC:
            continue  # Tc is pinned: a constant
        nodes = substitution.get(name)
        if nodes is None:
            return None, f"objective term {name} is not a graph variable"
        if not float(coeff).is_integer():
            return None, (
                f"objective coefficient {coeff!r} of {name} is not an integer"
            )
        for node, sign in nodes:
            supply[index[node]] += coeff * sign
    supply[index[ORIGIN]] = -supply.sum()
    return supply, ""


class FlowInfeasibleError(SolverError):
    """The min-cost flow has no feasible solution: some supply is stranded."""


def _min_cost_flow(
    st: CycleStructure, cost: _I64, supply: _F64
) -> tuple[_F64, int]:
    """An optimal uncapacitated flow per edge, and the rounds it took.

    Primal-dual successive shortest paths.  ``cost`` must be integral and
    ``>= 0`` (the caller's reduced costs), so the zero potential is dual
    feasible and Dijkstra applies from the start.  Each round runs one
    multi-source Dijkstra from every node with a remaining deficit over
    the reversed residual graph, lowers the potentials by the distances
    found -- every shortest-path tree arc now has reduced cost 0 -- and
    pushes each node's excess along its tree path to the tree's root,
    limited by the residual of the reversed arcs on the path and by the
    root's remaining deficit.  All arithmetic is on Python ints: path
    sums of 2**52-scale costs overflow int64.

    Self-loops never carry flow and of parallel edges only the cheapest
    can, so the network keeps one edge per node pair.  Raises
    :class:`FlowInfeasibleError` when some excess cannot reach a deficit.
    """
    live = np.flatnonzero(st.tail != st.head)
    live = live[np.lexsort((cost[live], st.head[live], st.tail[live]))]
    tails, heads = st.tail[live], st.head[live]
    first = np.ones(live.size, dtype=bool)
    first[1:] = (tails[1:] != tails[:-1]) | (heads[1:] != heads[:-1])
    edges = live[first]
    n = st.n_nodes
    # Arcs k are tail-sorted, so out_ptr delimits each node's out-arcs;
    # in_arc lists each node's in-arcs, delimited by in_ptr.
    arc_tail, arc_head = tails[first], heads[first]
    in_order = np.argsort(arc_head, kind="stable")
    out_ptr = np.cumsum(np.bincount(arc_tail, minlength=n)).tolist()
    in_ptr = np.cumsum(np.bincount(arc_head, minlength=n)).tolist()
    out_ptr.insert(0, 0)
    in_ptr.insert(0, 0)
    in_arc = in_order.tolist()
    in_tail = arc_tail[in_order].tolist()
    tail, head = arc_tail.tolist(), arc_head.tolist()
    weight = cost[edges].tolist()
    excess = [round(s) for s in supply.tolist()]
    pi = [0] * n
    flow = [0] * len(weight)
    inf = math.inf
    rounds = 0
    while True:
        sources = [v for v in range(n) if excess[v] > 0]
        if not sources:
            break
        rounds += 1
        # Reversed-residual Dijkstra: dist[v] is v's shortest reduced-cost
        # path to a deficit; via[v] its first arc, k forward or ~k reversed.
        # Heap keys pack (distance, node) into the int d * n + v.
        dist: list[int | None] = [None] * n
        via: list[int | None] = [None] * n
        best: list[float] = [inf] * n
        heap = [v for v in range(n) if excess[v] < 0]
        for v in heap:
            best[v] = 0
        pending = len(sources)
        reach = 0
        while heap and pending:
            d, v = divmod(heapq.heappop(heap), n)
            if dist[v] is not None:
                continue
            dist[v] = reach = d
            if excess[v] > 0:
                pending -= 1
            base = d - pi[v]
            for i in range(in_ptr[v], in_ptr[v + 1]):
                u = in_tail[i]
                if dist[u] is None:
                    nd = base + weight[in_arc[i]] + pi[u]
                    if nd < best[u]:
                        best[u] = nd
                        via[u] = in_arc[i]
                        heapq.heappush(heap, nd * n + u)
            for k in range(out_ptr[v], out_ptr[v + 1]):
                u = head[k]
                if flow[k] and dist[u] is None:
                    nd = base - weight[k] + pi[u]
                    if nd < best[u]:
                        best[u] = nd
                        via[u] = ~k
                        heapq.heappush(heap, nd * n + u)
        if pending:
            stranded = next(v for v in sources if dist[v] is None)
            raise FlowInfeasibleError(
                f"node {st.nodes[stranded]} has excess {excess[stranded]} "
                "and no residual path to a deficit"
            )
        # Unsettled nodes are at least ``reach`` away: lowering them by
        # exactly that keeps every residual reduced cost >= 0.
        for v in range(n):
            settled = dist[v]
            pi[v] -= reach if settled is None else settled
        for x in sources:
            path: list[int] = []
            v = x
            while (arc := via[v]) is not None:
                path.append(arc)
                v = head[arc] if arc >= 0 else tail[~arc]
            amount = min(excess[x], -excess[v])
            for k in path:
                if k < 0 and flow[~k] < amount:
                    amount = flow[~k]
            if amount <= 0:
                continue
            for k in path:
                if k >= 0:
                    flow[k] += amount
                else:
                    flow[~k] -= amount
            excess[x] -= amount
            excess[v] += amount
    out = np.zeros(st.n_edges)
    out[edges] = flow
    return out, rounds


def _solve_pinned(
    program: LinearProgram,
    smo: SMOProgram,
    comp: CompiledCycleGraph,
    tol: float,
) -> tuple[LPResult | None, str | None]:
    """Minimize a linear objective at a pinned period by min-cost flow.

    The program is ``min sum(c_v x_v)`` over difference constraints
    ``x_head - x_tail <= w_e``; its dual is the uncapacitated min-cost
    flow with supplies ``c`` and costs ``w``.  Costs are reduced by the
    Bellman-Ford potentials (so they are >= 0) and scaled to integers
    for the exact primal-dual flow solver.  Edges that carry flow must be tight at
    every optimum, so the optimal face is the difference system with
    those edges reversed as well; its greatest element (a single-source
    Bellman-Ford from ``origin``) is the returned point -- a canonical
    choice among alternate optima.  The point is certified against
    every row, the flow against the supplies, and primal = dual
    objective then proves both optimal.  Returns ``None`` and the
    reason whenever any step fails.
    """
    cg = comp.graph
    t = comp.tc_floor
    scale = max(1.0, abs(t))
    if comp.tc_cap is None or abs(comp.tc_cap - t) > tol * scale:
        return None, (
            "objective is not a positive multiple of Tc and Tc is not pinned"
        )
    if cg.skipped:
        return None, (
            f"{len(cg.skipped)} row(s) are not difference constraints "
            f"(first: {cg.skipped[0]})"
        )
    if cg.contradictions:
        name, detail = cg.contradictions[0]
        return None, f"constraint {name} is unsatisfiable: {detail}"
    st = comp.structure
    supply, why = _objective_supplies(program, smo, st.index)
    if supply is None:
        return None, why
    potentials = _bellman_ford(comp, t, tol)
    if not potentials.feasible:
        return None, f"the constraints have a negative cycle at Tc = {t!r}"
    assert potentials.dist is not None
    pi = potentials.dist
    w = comp.a + st.b * t
    reduced = np.maximum(w + pi[st.tail] - pi[st.head], 0.0)
    # Integer costs with float64's resolution: the largest maps to 2**52.
    cost_scale = 2.0**52 / max(1.0, float(reduced.max(initial=0.0)))
    cost = np.rint(reduced * cost_scale).astype(np.int64)
    try:
        flow, flow_rounds = _min_cost_flow(st, cost, supply)
    except FlowInfeasibleError as exc:
        return None, f"min-cost flow failed: {exc}"
    n = st.n_nodes
    net_out = np.bincount(st.tail, flow, n) - np.bincount(st.head, flow, n)
    if not np.array_equal(net_out, supply):
        return None, "the flow does not meet the supplies"
    support = np.flatnonzero(flow > 0.0)
    face = with_reversed_edges(comp, support)
    greatest = _bellman_ford(face, t, tol, source=st.index[ORIGIN])
    if not greatest.feasible:
        return None, "the flow's tight edges close a negative cycle"
    assert greatest.dist is not None
    unbounded = np.flatnonzero(~np.isfinite(greatest.dist))
    if unbounded.size:
        node = st.nodes[int(unbounded[0])]
        return None, f"the optimal face leaves {node} unbounded above"
    values = _recover_values(comp, smo, t, greatest.dist)
    worst, worst_row = _max_violation(program, values)
    if worst > CERTIFY_TOL * scale:
        return None, f"decoded schedule violates {worst_row} by {worst:.3g}"
    objective = program.objective
    primal = objective.evaluate(values)
    dual = objective.constant + objective.coefficient(TC) * t - float(w @ flow)
    gap = abs(primal - dual)
    if gap > CERTIFY_TOL * max(1.0, abs(primal)):
        return None, f"primal {primal!r} and dual {dual!r} objectives differ"
    result = LPResult(
        status=LPStatus.OPTIMAL,
        objective=primal,
        values=values,
        iterations=0,
        backend="cycle",
        extra={
            "cycle": {
                "used": True,
                "tc": t,
                "flow_edges": int(support.size),
                "flow_rounds": flow_rounds,
                "bf_rounds": potentials.rounds + greatest.rounds,
                "certified_rows": len(program.constraints),
                "max_violation": worst,
                "duality_gap": gap,
            }
        },
    )
    attach_slacks(result, program)
    return result, None


# ----------------------------------------------------------------------
# The backend entry point
# ----------------------------------------------------------------------
def solve_cycle(
    program: LinearProgram,
    context: object | None = None,
    check: bool = False,
    tol: float = TOL,
) -> LPResult:
    """Solve an SMO program on its difference-constraint graph.

    Two kinds of program have a graph answer: ``min Tc`` (parametric
    critical-cycle search) and, with Tc pinned by its constraints, any
    objective with integer coefficients on the graph variables
    (min-cost flow; see :func:`_solve_pinned`).  ``context`` must be the
    :class:`SMOProgram` that owns ``program`` -- the event-time
    substitution needs the timing graph and cannot be recovered from the
    bare LP.  Whenever the graph route cannot *prove* its answer optimal
    -- missing context, another objective, a skipped row, or a decoded
    schedule that violates a row -- the call transparently falls back to
    the revised simplex, so ``backend="cycle"`` is always correct,
    merely sometimes no faster.  With ``check=True`` (the
    ``"cycle+check"`` backend) the LP reference is solved
    unconditionally and any disagreement beyond ``1e-9`` relative raises
    :class:`SolverError`.
    """
    smo = context if isinstance(context, SMOProgram) else None
    reason: str | None = None
    period: CyclePeriod | None = None
    if smo is None:
        reason = "no SMOProgram context supplied"
    elif smo.program is not program:
        reason = "program is not the context's SMO program"

    result: LPResult | None = None
    if smo is not None and reason is None:
        comp = compile_cycle_graph(
            constraint_graph_for(smo), key=structure_fingerprint(smo)
        )
        objective_coeff = _tc_objective_coeff(program)
        if objective_coeff is None:
            result, reason = _solve_pinned(program, smo, comp, tol)
        else:
            period = minimum_feasible_period(comp, tol=tol)
            result, reason = _certify_period(
                program, smo, comp, period, objective_coeff
            )

    if result is None:
        # Graceful fallback: the graph route could not certify an answer.
        from repro.lp.backends import solve as lp_solve

        fallback = _fallback_backend(program)
        with trace.span("cycle_fallback", reason=reason or ""):
            result = lp_solve(program, backend=fallback)
        fallback_info: dict[str, object] = {
            "used": False,
            "reason": reason,
            "fallback_backend": fallback,
        }
        if period is not None:
            fallback_info["bound"] = period.value
        result.extra["cycle"] = fallback_info

    if metrics.is_enabled():
        _record_cycle_metrics(result, period)
    if check:
        _cross_check(program, result, tol)
    return result


def _record_cycle_metrics(result: LPResult, period: CyclePeriod | None) -> None:
    """Fold one cycle solve into the metrics registry.

    ``outcome`` is the certification verdict: ``certified`` (the graph
    answer was proven optimal), ``infeasible`` (the graph proved no
    feasible period exists), or ``fallback`` (the revised simplex had to
    answer).  The iteration-count histograms record only actual graph
    searches, so fallbacks without a parametric pass don't pollute them.
    """
    info = result.extra.get("cycle")
    used = isinstance(info, dict) and bool(info.get("used"))
    if used:
        outcome = (
            "certified" if result.status is LPStatus.OPTIMAL else "infeasible"
        )
    else:
        outcome = "fallback"
    metrics.inc("cycle_solves_total", outcome=outcome)
    if period is not None:
        metrics.observe(
            "cycle_jumps", float(period.jumps), buckets=metrics.COUNT_BUCKETS
        )
        metrics.observe(
            "cycle_bisections",
            float(period.bisections),
            buckets=metrics.COUNT_BUCKETS,
        )
        metrics.observe(
            "cycle_bf_rounds",
            float(period.bf_rounds),
            buckets=metrics.COUNT_BUCKETS,
        )


def _cross_check(
    program: LinearProgram,
    result: LPResult,
    tol: float,
) -> None:
    """Solve the LP reference and assert agreement (``cycle+check``)."""
    from repro.lp.backends import solve as lp_solve

    info = result.extra.setdefault("cycle", {})
    reference_backend = _fallback_backend(program)
    if not info.get("used", False):
        # Fallback already *is* the LP answer; nothing to cross-check.
        info["check"] = {"backend": reference_backend, "delta": 0.0}
        return
    with trace.span("cycle_check", backend=reference_backend):
        reference = lp_solve(program, backend=reference_backend)
    if result.status is not reference.status:
        raise SolverError(
            f"cycle/LP status disagreement: cycle={result.status.value} "
            f"vs {reference_backend}={reference.status.value}"
        )
    delta = 0.0
    if result.status is LPStatus.OPTIMAL:
        delta = abs(result.objective - reference.objective)
        scale = max(1.0, abs(reference.objective))
        if delta > 1e-9 * scale:
            raise SolverError(
                f"cycle optimum {result.objective!r} disagrees with "
                f"{reference_backend} optimum {reference.objective!r} "
                f"(delta {delta:.3g})"
            )
    info["check"] = {
        "backend": reference_backend,
        "objective": reference.objective,
        "delta": delta,
        "pivots": reference.iterations,
    }
