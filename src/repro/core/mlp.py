"""Algorithm MLP: optimal cycle time calculation by modified LP (Section IV).

The design problem P1 (minimize Tc subject to C1-C4 and the nonlinear latch
constraints L1-L3) is solved in two steps, following Theorem 1:

1. Solve the LP relaxation P2 (propagation equalities relaxed to ``>=``).
   By Theorem 1 its optimal Tc equals P1's.
2. Hold the clock variables at the LP optimum and "slide" the departure
   times down to a fixpoint of the max constraints (steps 3-5 of the
   paper's listing), turning the LP point into a feasible P1 solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.circuit.graph import TimingGraph
from repro.clocking.schedule import ClockSchedule
from repro.core.analysis import TimingReport, analyze
from repro.core.constraints import (
    ConstraintOptions,
    SMOProgram,
    build_maxplus_system,
    build_program,
    d_var,
    pin_period,
    s_var,
    schedule_from_values,
    t_var,
)
from repro.errors import ReproError
from repro.lp.backends import solve
from repro.lp.expr import LinExpr
from repro.lp.result import LPResult
from repro.maxplus.fixpoint import slide
from repro.obs import trace


@dataclass(frozen=True)
class MLPOptions:
    """Knobs for :func:`minimize_cycle_time`.

    ``iteration`` selects how the departure-time slide is performed:
    ``"jacobi"`` is the paper's listing, ``"gauss-seidel"`` and ``"event"``
    are the more efficient variants the paper suggests.  ``verify`` re-runs
    the independent fixed-schedule analyzer on the result and raises if the
    produced schedule is not actually feasible (it always should be).

    ``compact`` selects among the (generally non-unique, see the paper's
    Fig. 6 discussion) optimal schedules: after the minimum Tc is found, a
    second pass holds Tc fixed and minimizes the sum of phase starts,
    phase widths and departure times.  That LP has alternate optima too,
    so the pass returns the *greatest* point of its optimal face -- a
    mathematical definition, computed by min-cost flow on the cycle
    solver's graph (see ``docs/CYCLE.md``) whatever ``backend`` is, and
    therefore the same schedule on every backend.  The optimal cycle
    time is unaffected.

    ``kernel`` selects the execution engine for the slide (step 3-5
    fixpoint iteration) under the Jacobi and Gauss-Seidel methods:
    ``"dict"`` runs the reference implementation over Python dicts,
    ``"array"`` the compiled numpy kernels of
    :mod:`repro.maxplus.compiled`, and ``"auto"`` (the default) picks the
    array kernels on circuits large enough for the lowering to pay off.
    The array kernels are bit-identical to the dict kernels, so the choice
    never changes a reported schedule or period.  The event worklist
    always runs on dicts.

    ``sanitize`` runs the :mod:`repro.lint.sanitize` a-posteriori checker
    on the finished result: every explicit SMO row, the implicit C4/L3
    bounds and L2 tightness are re-verified at the solved point, and a
    violation raises :class:`~repro.errors.ReproError` (it would indicate
    a solver/kernel bug, not a property of the circuit).  The per-run
    :class:`~repro.lint.sanitize.SanitizeReport` lands in
    ``result.extra["sanitize"]``.

    ``backend`` names the LP backend of the Tc pass (see
    :func:`repro.lp.backends.available_backends`).  Left at ``None``, the
    Tc pass goes to the graph-native ``"cycle"`` backend, which solves
    the Tc minimization by parametric critical-cycle search over the
    difference-constraint graph (see :mod:`repro.cycle`) -- no simplex
    tableau -- and certifies both the schedule and the critical cycle's
    duals against the LP, falling back to the revised simplex when it
    cannot.  Name ``"simplex"`` for the paper's dense tableau.
    The ``compact`` pass always runs on that graph and only
    falls back to a simplex when it cannot certify its answer (recorded
    in ``extra["compact"]``); disable ``compact`` to take the Tc pass's
    own schedule instead (for ``"cycle"``, the shortest-path potentials
    at the optimum).  ``"cycle+check"`` cross-checks both passes'
    optima against the revised simplex *and* forces the sanitizer on,
    regardless of ``sanitize``.
    """

    backend: str | None = None
    iteration: str = "jacobi"
    verify: bool = True
    compact: bool = True
    tol: float = 1e-9
    kernel: str = "auto"
    sanitize: bool = False


@dataclass
class OptimalClockResult:
    """Outcome of Algorithm MLP.

    ``period`` is the optimal cycle time (equal for P1 and P2 by Theorem 1);
    ``schedule`` is the optimal clock schedule; ``departures`` are the P1
    departure times after the slide; ``lp_departures`` are the raw P2 values
    before the slide; ``slide_sweeps`` counts the update iterations of
    steps 3-5 (the paper reports 0-3 in practice).
    """

    period: float
    schedule: ClockSchedule
    departures: dict[str, float]
    lp_departures: dict[str, float]
    lp_result: LPResult
    #: the raw Tc-minimizing solve (before any compact tie-break pass);
    #: its duals are the true sensitivities dTc*/d(rhs) -- use these for
    #: parametric/criticality reasoning.  Equal to ``lp_result`` when the
    #: compact pass is disabled.
    lp_tc_result: LPResult = None  # type: ignore[assignment]
    smo: SMOProgram = None  # type: ignore[assignment]
    slide_sweeps: int = 0
    slide_method: str = "jacobi"
    #: magnitude of the last value update the slide applied before
    #: converging (0.0 when the LP point was already a fixpoint).
    slide_residual: float = 0.0
    report: TimingReport | None = None
    extra: dict[str, object] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.report.feasible if self.report is not None else True


def _tie_break(graph: TimingGraph) -> LinExpr:
    """``sum(s_i) + sum(T_i) + sum(D_i)``, the compact pass's objective."""
    tie_break: dict[str, float] = {}
    for phase in graph.phase_names:
        tie_break[s_var(phase)] = tie_break[t_var(phase)] = 1.0
    for sync in graph.synchronizers:
        tie_break[d_var(sync.name)] = 1.0
    return LinExpr(tie_break)


def build_compact_program(
    graph: TimingGraph, options: ConstraintOptions, period: float
) -> SMOProgram:
    """The compact tie-break LP ``P2-compact``: Tc pinned at ``period``.

    Minimizes ``sum(s_i) + sum(T_i) + sum(D_i)``: phases start as early and
    stay as narrow as the constraints allow, and departures hug the phase
    openings.  Any feasible point of this program is an alternate optimum
    of P2 at ``period``, so Theorem 1 still applies.  This builds the
    program from the circuit; Algorithm MLP derives the same program from
    its Tc pass with :func:`compact_program` instead.
    """
    smo = build_program(
        graph, replace(options, fixed_period=period), name="P2-compact"
    )
    smo.program.minimize(_tie_break(graph))
    return smo


def compact_program(smo: SMOProgram, period: float) -> SMOProgram:
    """``P2-compact`` as a view of the Tc pass's program ``smo``.

    The same rows, in the same order, as :func:`build_compact_program`
    -- P2's rows shared copy-on-write plus ``FIX[Tc]``
    (:func:`repro.core.constraints.pin_period`) -- with the tie-break
    objective.  The cycle engine then solves it on P2's difference graph
    with Tc pinned, without walking the circuit or the rows again.
    """
    compact = pin_period(smo, period, name="P2-compact")
    compact.program.minimize(_tie_break(smo.graph))
    return compact


def _compact_pass(
    smo: SMOProgram,
    mlp: "MLPOptions",
    optimal_period: float,
    fallback: LPResult,
    stages: dict[str, float] | None = None,
) -> LPResult:
    """Re-optimize with Tc pinned at the optimum for a canonical schedule.

    Solves :func:`compact_program` and records in ``extra["compact"]``
    whether the graph answered (``used``), why not (``reason``) and the
    simplex pivots a fallback took.
    """
    build_start = time.perf_counter()
    smo2 = compact_program(smo, optimal_period)
    if stages is not None:
        stages["constraint_gen"] = (
            stages.get("constraint_gen", 0.0) + time.perf_counter() - build_start
        )
    # The tie-break LP is a min-cost flow on the cycle solver's graph; its
    # answer is the greatest point of the optimal face on every backend.
    backend = "cycle+check" if mlp.backend == "cycle+check" else "cycle"
    with trace.span("compact") as span:
        result = solve(smo2.program, backend=backend, context=smo2)
        info = result.extra.get("cycle", {})
        compact = {
            "used": bool(info.get("used")),
            "reason": info.get("reason"),
            "pivots": result.iterations,
        }
        for key, value in compact.items():
            span.set(key, value)
    result.extra["compact"] = compact
    if not result.ok:  # pragma: no cover - the pinned LP is always feasible
        return fallback
    # Restore the cycle-time objective value for downstream consumers.
    result.objective = optimal_period
    return result


def minimize_cycle_time(
    graph: TimingGraph,
    options: ConstraintOptions | None = None,
    mlp: MLPOptions | None = None,
    smo: SMOProgram | None = None,
) -> OptimalClockResult:
    """Find the minimum cycle time and an optimal clock schedule (Algorithm MLP).

    ``smo`` optionally supplies a pre-built constraint system for
    ``graph``/``options`` -- the parametric sweep passes the re-costed
    program from :func:`repro.core.constraints.recost_arc_delay` here to
    skip the circuit walk.  It is a pure performance device: the reported
    optimum is identical with or without it.

    Raises :class:`repro.errors.InfeasibleError` when the constraint system
    has no solution (e.g. contradictory fixed clock values) and
    :class:`repro.errors.ReproError` if verification of the result fails,
    which would indicate a bug rather than a property of the circuit.
    """
    options = options or ConstraintOptions()
    mlp = mlp or MLPOptions()
    stages: dict[str, float] = {}

    # Step 1: solve the LP relaxation P2.
    build_start = time.perf_counter()
    with trace.span("constraint_gen", stage="program") as cg_span:
        if smo is None:
            smo = build_program(graph, options)
        cg_span.set("constraints", len(smo.program.constraints))
    stages["constraint_gen"] = time.perf_counter() - build_start
    tc_result = solve(
        smo.program, backend=mlp.backend, context=smo
    ).raise_for_status()
    lp_solves = 1
    lp_iterations = tc_result.iterations
    stages["lp_solve"] = tc_result.solve_seconds

    lp_result = tc_result
    cycle_info = tc_result.extra.get("cycle")
    if mlp.compact:
        lp_result = _compact_pass(
            smo, mlp, tc_result.objective, tc_result, stages
        )
        if lp_result is not tc_result:
            lp_solves += 1
            lp_iterations += lp_result.iterations
            stages["compact"] = lp_result.solve_seconds

    schedule = schedule_from_values(graph, lp_result.values, tol=max(mlp.tol, 1e-9))
    lp_departures = {
        sync.name: lp_result.values[d_var(sync.name)]
        for sync in graph.synchronizers
    }

    # Steps 2-5: slide the departures to a fixpoint of the max constraints,
    # holding the clock variables at their LP-optimal values.
    build_start = time.perf_counter()
    with trace.span("constraint_gen", stage="maxplus"):
        system = build_maxplus_system(graph, schedule, options)
    stages["constraint_gen"] += time.perf_counter() - build_start
    slide_start = time.perf_counter()
    with trace.span("slide", method=mlp.iteration, kernel=mlp.kernel):
        fix = slide(
            system,
            lp_departures,
            method=mlp.iteration,
            tol=mlp.tol,
            kernel=mlp.kernel,
        )
    stages["slide"] = time.perf_counter() - slide_start

    result = OptimalClockResult(
        period=schedule.period,
        schedule=schedule,
        departures=fix.values,
        lp_departures=lp_departures,
        lp_result=lp_result,
        lp_tc_result=tc_result,
        smo=smo,
        slide_sweeps=fix.iterations,
        slide_method=fix.method,
        slide_residual=fix.residual,
    )
    result.extra["stages"] = stages
    result.extra["lp_solves"] = lp_solves
    result.extra["lp_iterations"] = lp_iterations
    result.extra["slide_residual"] = fix.residual
    result.extra["refactorizations"] = int(
        tc_result.extra.get("refactorizations", 0)
    ) + int(
        lp_result.extra.get("refactorizations", 0)
        if lp_result is not tc_result
        else 0
    )
    if isinstance(cycle_info, dict):
        result.extra["cycle"] = cycle_info
    if "compact" in lp_result.extra:
        result.extra["compact"] = lp_result.extra["compact"]

    # "cycle+check" is the self-verifying mode: LP cross-check happened in
    # the backend; schedule feasibility is asserted by forcing the
    # sanitizer on here.
    if mlp.sanitize or mlp.backend == "cycle+check":
        # Local import: repro.lint imports from this package.
        from repro.lint.sanitize import sanitize_solution

        sanitize_start = time.perf_counter()
        with trace.span("sanitize") as san_span:
            check = sanitize_solution(
                graph,
                schedule,
                fix.values,
                options=options,
                smo=smo,
                tol=max(mlp.tol, 1e-9) * 1e3,
            )
            san_span.set("ok", check.ok)
            san_span.set("checked", check.checked)
            san_span.set("min_slack", check.min_slack)
        stages["sanitize"] = time.perf_counter() - sanitize_start
        result.extra["sanitize"] = check
        if not check.ok:
            raise ReproError(
                "internal error: sanitizer rejected the MLP result:\n"
                + check.format()
            )

    if mlp.verify:
        verify_start = time.perf_counter()
        with trace.span("analysis") as an_span:
            report = analyze(graph, schedule, options)
            an_span.set("feasible", report.feasible)
            an_span.set("worst_slack", report.worst_slack)
        stages["analysis"] = time.perf_counter() - verify_start
        result.report = report
        if not report.feasible:
            raise ReproError(
                "internal error: MLP produced an infeasible schedule "
                f"(worst slack {report.worst_slack:g}); please report this"
            )
    return result
