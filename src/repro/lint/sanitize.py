"""A-posteriori verification of solved schedules against every P1 row.

Algorithm MLP ends with a clock schedule and slid departure times that are
claimed to satisfy P1: every explicit SMO row (C1-C3, L1, L2R, FF, FS and
the configured extensions), the implicit nonnegativity bounds (C4/L3), and
-- beyond the LP relaxation -- *tightness* of the propagation equalities
L2 (each departure must be a fixpoint of the max constraints, not merely
above one).  The sanitizer re-derives all of that from scratch: it
evaluates the full constraint system at the solution point with
per-constraint slacks and re-applies the max-plus update map once, so a
regression anywhere in the solver, kernel or slide machinery shows up
as a named violated row instead of a silently wrong schedule downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.circuit.graph import TimingGraph
from repro.clocking.schedule import ClockSchedule
from repro.core.constraints import (
    TC,
    ConstraintOptions,
    SMOProgram,
    build_maxplus_system,
    build_program,
    d_var,
    s_var,
    t_var,
)
from repro.errors import AnalysisError
from repro.lp.model import Sense

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports lint)
    from repro.core.mlp import OptimalClockResult


@dataclass(frozen=True)
class ConstraintSlack:
    """Signed slack of one constraint at the solution point.

    Positive slack means satisfied with margin; negative means violated by
    that amount.  Equality rows report ``-|lhs - rhs|`` (never positive).
    """

    name: str
    family: str
    slack: float

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "family": self.family, "slack": self.slack}


@dataclass
class SanitizeReport:
    """Outcome of :func:`sanitize_solution`.

    ``violations`` lists the rows whose slack is below ``-tol``;
    ``tightness_residual`` is ``max |F(D) - D|`` of the max-plus update map
    at the departure vector (nonzero means some departure is not actually a
    fixpoint -- feasible for the LP relaxation P2, but not a valid P1
    point).  ``worst`` is the most negative slack observed (0 when clean).
    """

    checked: int = 0
    tol: float = 1e-6
    violations: list[ConstraintSlack] = field(default_factory=list)
    tightness_residual: float = 0.0
    min_slack: float = 0.0
    min_slack_constraint: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations and self.tightness_residual <= self.tol

    @property
    def worst(self) -> float:
        if not self.violations:
            return 0.0
        return min(v.slack for v in self.violations)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "tol": self.tol,
            "violations": [v.to_dict() for v in self.violations],
            "tightness_residual": self.tightness_residual,
            "min_slack": self.min_slack,
            "min_slack_constraint": self.min_slack_constraint,
        }

    def format(self) -> str:
        if self.ok:
            return (
                f"sanitize: clean ({self.checked} constraints, min slack "
                f"{self.min_slack:g} at {self.min_slack_constraint or '-'}, "
                f"tightness residual {self.tightness_residual:g})"
            )
        lines = [
            f"sanitize: {len(self.violations)} violated constraint(s) "
            f"of {self.checked} (tol {self.tol:g})"
        ]
        for violation in sorted(self.violations, key=lambda v: v.slack):
            lines.append(
                f"  {violation.name} [{violation.family}]: "
                f"slack {violation.slack:g}"
            )
        if self.tightness_residual > self.tol:
            lines.append(
                f"  L2 tightness residual {self.tightness_residual:g} "
                "(departures are not a fixpoint)"
            )
        return "\n".join(lines)


def solution_assignment(
    graph: TimingGraph,
    schedule: ClockSchedule,
    departures: Mapping[str, float],
) -> dict[str, float]:
    """The LP variable assignment encoded by a solved schedule."""
    values: dict[str, float] = {TC: schedule.period}
    for phase in schedule.phases:
        values[s_var(phase.name)] = phase.start
        values[t_var(phase.name)] = phase.width
    for sync in graph.synchronizers:
        if sync.name not in departures:
            raise AnalysisError(
                f"sanitize: no departure time for synchronizer {sync.name!r}"
            )
        values[d_var(sync.name)] = departures[sync.name]
    return values


def sanitize_solution(
    graph: TimingGraph,
    schedule: ClockSchedule,
    departures: Mapping[str, float],
    options: ConstraintOptions | None = None,
    smo: SMOProgram | None = None,
    tol: float = 1e-6,
) -> SanitizeReport:
    """Re-verify a solved point against every P1 constraint.

    ``smo`` optionally reuses an already-built constraint system (it must
    match ``graph``/``options``); otherwise one is generated.  The check
    covers every explicit row with signed slack, the implicit C4/L3
    nonnegativity bounds, and L2 equality tightness via one application of
    the max-plus update map.
    """
    options = options or ConstraintOptions()
    if smo is None:
        smo = build_program(graph, options)
    values = solution_assignment(graph, schedule, departures)
    family_of = {
        name: tag for tag, names in smo.families.items() for name in names
    }
    report = SanitizeReport(tol=tol)
    min_slack = float("inf")
    min_name = ""

    def record(name: str, family: str, slack: float) -> None:
        nonlocal min_slack, min_name
        report.checked += 1
        if slack < min_slack:
            min_slack = slack
            min_name = name
        if slack < -tol:
            report.violations.append(ConstraintSlack(name, family, slack))

    for con in smo.program.constraints:
        value = con.lhs.evaluate(values)
        if con.sense is Sense.LE:
            slack = con.rhs - value
        elif con.sense is Sense.GE:
            slack = value - con.rhs
        else:
            slack = -abs(value - con.rhs)
        record(con.name, family_of.get(con.name, "?"), slack)

    # Implicit nonnegativity bounds (C4 for clock variables, L3 for
    # departures) -- the LP keeps these as variable bounds, so they never
    # appear as rows, but P1 requires them all the same.
    free = smo.program.free_variables
    if TC not in free:
        record(f"C4[{TC}]", "C4", values[TC])
    for phase in graph.phase_names:
        if s_var(phase) not in free:
            record(f"C4[{s_var(phase)}]", "C4", values[s_var(phase)])
        if t_var(phase) not in free:
            record(f"C4[{t_var(phase)}]", "C4", values[t_var(phase)])
    for sync in graph.synchronizers:
        if d_var(sync.name) not in free:
            record(f"L3[{d_var(sync.name)}]", "L3", values[d_var(sync.name)])

    # L2 tightness: the relaxation L2R only lower-bounds departures; a P1
    # point needs them *equal* to the max of their predecessors (eq. 17).
    system = build_maxplus_system(graph, schedule, options)
    report.tightness_residual = system.residual(dict(departures))
    report.checked += 1

    report.min_slack = 0.0 if min_slack == float("inf") else min_slack
    report.min_slack_constraint = min_name
    return report


def sanitize_result(
    graph: TimingGraph,
    result: "OptimalClockResult",
    options: ConstraintOptions | None = None,
    tol: float = 1e-6,
) -> SanitizeReport:
    """Sanitize an :class:`~repro.core.mlp.OptimalClockResult` in place.

    Reuses the result's own constraint system when it was kept, so the
    check runs against exactly the rows the solver saw.
    """
    smo = result.smo if result.smo is not None else None
    return sanitize_solution(
        graph,
        result.schedule,
        result.departures,
        options=options,
        smo=smo,
        tol=tol,
    )
