"""Pre-solve diagnostics on the SMO difference-constraint graph.

:mod:`repro.cycle.graph` lowers every SMO row to a difference constraint
``head - tail <= a + b*Tc`` with ``b >= 0``.  Two classic results (CLRS
24.4, Karp 1978) then answer both questions lint asks:

* the system is feasible at a fixed period ``t`` iff the graph with edge
  weights ``a + b*t`` has no negative cycle, and a negative cycle *is* an
  infeasibility certificate naming the constraints on it;
* since every ``b >= 0``, the feasible set of ``Tc`` is upward closed and
  its infimum is ``max_C -A(C)/B(C)`` over cycles ``C`` with
  ``B(C) = sum b > 0``.  When no row is skipped the encoding is complete,
  so this bound *equals* the LP-optimal cycle time without running any LP.

:func:`diagnose` asks :func:`repro.cycle.minimum_feasible_period` that
one question, once, with any scalar cap on ``Tc`` lifted, and reads every
certificate off the answer: a negative cycle independent of ``Tc`` is
structural, and a critical cycle whose ratio exceeds the cap is a period
certificate requiring exactly the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from repro.circuit.graph import TimingGraph
from repro.core.constraints import ConstraintOptions, SMOProgram, build_program
from repro.cycle import compile_cycle_graph, minimum_feasible_period
from repro.cycle.graph import (
    ConstraintGraph,
    DiffEdge,
    constraint_graph_for,
    structure_fingerprint,
)


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Proof that the constraint system cannot be satisfied.

    ``kind`` is ``"structural"`` (a negative cycle whose weight does not
    depend on Tc -- no period can fix it), ``"period"`` (the critical
    cycle forces ``Tc >= required_tc``, the Tc bound, but a scalar row caps
    the period at ``tc`` below that), or ``"contradiction"`` (a constant
    row that is false by itself, or a scalar floor above the cap).

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
    ``iterations`` counts the cycle-ratio jumps of the search.
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

    Constant-row contradictions are checked first.  Then one parametric
    search of the cycle engine, on a view of the graph without its scalar
    cap, yields the full Tc bound and its critical cycle: a negative cycle
    independent of Tc is a structural certificate, and a bound above the
    cap is a period certificate naming the critical cycle -- or, when no
    cycle forces it, a floor-above-cap contradiction.
    """
    if smo is None:
        smo = build_program(graph, options or ConstraintOptions())
    cg = constraint_graph_for(smo)
    cap = cg.tc_cap
    exact = not cg.skipped

    if cg.contradictions:
        name, detail = cg.contradictions[0]
        certificate = InfeasibilityCertificate(
            kind="contradiction",
            message=f"constraint {name} is unsatisfiable: {detail}",
        )
        bound = TcBound(value=math.inf, exact=exact)
        return GraphDiagnostics(certificate, bound, cap, cg)

    comp = compile_cycle_graph(cg, key=structure_fingerprint(smo))
    period = minimum_feasible_period(replace(comp, tc_cap=None), tol=tol)
    cycle = tuple(cg.edges[i] for i in period.cycle)
    bound = TcBound(
        value=period.value, cycle=cycle, iterations=period.jumps, exact=exact
    )
    certificate = None
    if period.status == "structural":
        weight = sum(e.a for e in cycle)
        certificate = InfeasibilityCertificate(
            kind="structural",
            message=(
                "negative cycle independent of Tc "
                f"(total weight {weight:g}): no clock period can satisfy "
                f"{', '.join(bound.constraints)}"
            ),
            cycle=cycle,
        )
    elif cap is not None and bound.value > cap + tol * max(1.0, abs(cap)):
        pinned_by = tuple(cg.cap_constraints())
        capped_by = ", ".join(pinned_by)
        if cycle:
            certificate = InfeasibilityCertificate(
                kind="period",
                message=(
                    f"cycle through {', '.join(bound.constraints)} "
                    f"requires Tc >= {bound.value:g}, but {capped_by} "
                    f"cap Tc at {cap:g}"
                ),
                cycle=cycle,
                tc=cap,
                required_tc=bound.value,
                pinned_by=pinned_by,
            )
        else:
            floor = cg.tc_floor
            floor_rows = [name for v, name in cg.tc_lower if v >= floor - tol]
            certificate = InfeasibilityCertificate(
                kind="contradiction",
                message=(
                    f"scalar bounds conflict: {', '.join(floor_rows)} force "
                    f"Tc >= {floor:g} but {capped_by} cap Tc at {cap:g}"
                ),
                tc=cap,
                required_tc=floor,
                pinned_by=pinned_by,
            )
    return GraphDiagnostics(certificate, bound, cap, cg)
