"""Critical-segment extraction from the LP optimum (Section V).

The paper observes that for latch-controlled circuits "the notion of a
critical path is clearly inadequate"; instead the circuit has several
critical combinational delay *segments* whose criticality is "directly
related to associated slack variables in the inequality constraints".
This module reads those slacks (and shadow prices) off a solved SMO
program and chains the critical arcs into segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.constraints import SMOProgram
from repro.errors import LPError
from repro.lp.result import LPResult


@dataclass(frozen=True)
class CriticalArc:
    """A combinational arc whose propagation constraint is binding."""

    src: str
    dst: str
    constraint: str
    dual: float


@dataclass
class CriticalReport:
    """Binding structure at the MLP optimum."""

    arcs: list[CriticalArc] = field(default_factory=list)
    #: maximal chains of critical arcs (each a list of synchronizer names)
    segments: list[list[str]] = field(default_factory=list)
    #: latches whose setup constraint is binding
    critical_setups: list[str] = field(default_factory=list)
    #: binding clock constraints (C1/C2/C3 names)
    critical_clock: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        lines = ["critical segments:"]
        for seg in self.segments:
            lines.append("  " + " -> ".join(seg))
        if self.critical_setups:
            lines.append("binding setups: " + ", ".join(self.critical_setups))
        if self.critical_clock:
            lines.append("binding clock constraints: " + ", ".join(self.critical_clock))
        return "\n".join(lines)


def critical_segments(
    smo: SMOProgram, result: LPResult, tol: float = 1e-7
) -> CriticalReport:
    """Extract critical arcs, segments and binding constraints.

    An arc is critical when its L2R (or FS) row is binding at the optimum.
    Segments are the maximal weakly-connected chains formed by critical
    arcs; they generalize the critical path: several disjoint segments can
    be simultaneously critical, and each typically spans only part of a
    combinational stage (the rest of the slack having been "borrowed").
    """
    if not result.ok:
        raise LPError(f"cannot extract criticality from a {result.status.value} result")

    report = CriticalReport()
    binding = set(result.binding_constraints(tol))

    for name, (src, dst) in smo.arc_of_constraint.items():
        if name in binding:
            report.arcs.append(
                CriticalArc(src, dst, name, result.duals.get(name, 0.0))
            )

    for name in smo.family("L1"):
        if name in binding:
            # L1 names look like "L1[latch]".
            report.critical_setups.append(name[3:-1])
    for tag in ("C1", "C2", "C3"):
        for name in smo.family(tag):
            if name in binding:
                report.critical_clock.append(name)

    import networkx as nx

    g = nx.DiGraph()
    for arc in report.arcs:
        g.add_edge(arc.src, arc.dst)
    for component in nx.weakly_connected_components(g):
        sub = g.subgraph(component)
        # Order the segment by a DFS walk from a source-like node.
        starts = [n for n in sub.nodes if sub.in_degree(n) == 0] or list(sub.nodes)
        order = list(nx.dfs_preorder_nodes(sub, source=starts[0]))
        report.segments.append(order)
    report.segments.sort(key=len, reverse=True)
    return report
