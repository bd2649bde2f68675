"""Generation of the SMO timing constraints (Section III of the paper).

The constraint families, named as in the paper:

* **C1** periodicity: ``T_i <= Tc`` and ``s_i <= Tc`` for each phase;
* **C2** phase ordering: ``s_i <= s_{i+1}``;
* **C3** phase nonoverlap: ``s_i >= s_j + T_j - C_ji * Tc`` for every
  input/output phase pair ``K_ij = 1``;
* **C4** nonnegativity of ``Tc``, ``T_i``, ``s_i`` (implicit variable
  bounds in the LP);
* **L1** latch setup: ``D_i + Delta_DCi <= T_{p_i}`` (the paper's
  "realistic" form, eq. 11/16);
* **L2R** relaxed propagation: ``D_i >= D_j + Delta_DQj + Delta_ji +
  S_{p_j p_i}`` for every combinational arc j->i (eq. 19);
* **L3** nonnegativity of ``D_i`` (implicit variable bound).

Edge-triggered flip-flops (present in the paper's GaAs case study) pin
their departure variable to the triggering edge (family **FF**) and replace
the latch-style setup constraint with per-fanin arrival constraints
(family **FS**), since a flip-flop provides no transparency to absorb late
arrivals.

Every generated coefficient is 0 or +/-1 -- the "exclusively topological"
property the paper highlights in Section VI -- which
:meth:`SMOProgram.assert_topological` verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from repro.circuit.elements import EdgeKind, FlipFlop
from repro.circuit.graph import TimingGraph
from repro.clocking.schedule import ClockSchedule
from repro.clocking.skew import SkewBound
from repro.errors import CircuitError, LPError
from repro.lp.expr import var
from repro.lp.model import LinearProgram, Sense
from repro.maxplus.compiled import prime_weights
from repro.maxplus.system import MaxPlusSystem, WeightedArc

#: LP variable name for the clock period.
TC = "Tc"


def s_var(phase: str) -> str:
    """LP variable name for the start time ``s`` of a phase."""
    return f"s[{phase}]"


def t_var(phase: str) -> str:
    """LP variable name for the active-interval width ``T`` of a phase."""
    return f"T[{phase}]"


def d_var(sync: str) -> str:
    """LP variable name for the departure time ``D`` of a synchronizer."""
    return f"D[{sync}]"


@dataclass(frozen=True)
class ConstraintOptions:
    """Optional requirements beyond the paper's minimal set C1-C4/L1-L3.

    The paper notes (Section III-A) that "further requirements, such as
    minimum phase width, minimum phase separation, and clock skew, can be
    easily added"; these options implement them:

    * ``min_width`` -- lower bound on every phase width (family **XW**);
    * ``min_separation`` -- extra spacing added to the C3 nonoverlap
      constraints;
    * ``setup_margin`` -- a global skew/jitter margin added to every setup
      requirement;
    * ``fixed_period`` / ``fixed_starts`` / ``fixed_widths`` -- pin clock
      variables (family **FIX**), turning the design problem into analysis
      or partial optimization;
    * ``zero_departure_phases`` -- force ``D_i = 0`` for every latch on the
      listed phases (family **NR**); this is the null-retardation device the
      NRIP baseline builds on;
    * ``max_period`` -- upper bound on ``Tc``, useful for feasibility
      queries ("can this circuit run at 4 ns?");
    * ``skew`` -- per-phase :class:`~repro.clocking.skew.SkewBound` bounds.
      The generated system is then *worst-case skew aware*: a schedule it
      accepts meets timing no matter where each phase's edges land within
      its bounds.  Concretely (family **XS** plus tightened rows):

      - latch departures are floored at the latest possible phase opening
        (``D_i >= late_i``), and flip-flop departures are pinned to the
        latest possible triggering edge;
      - setup is checked against the earliest possible closing/triggering
        edge (deadline reduced by ``early_i``);
      - phase nonoverlap C3 is padded by ``early_in + late_out``.
    """

    min_width: float = 0.0
    min_separation: float = 0.0
    setup_margin: float = 0.0
    fixed_period: float | None = None
    fixed_starts: Mapping[str, float] | None = None
    fixed_widths: Mapping[str, float] | None = None
    zero_departure_phases: tuple[str, ...] = ()
    max_period: float | None = None
    skew: Mapping[str, SkewBound] | None = None

    def __post_init__(self) -> None:
        if self.min_width < 0:
            raise LPError(f"min_width must be >= 0, got {self.min_width}")
        if self.min_separation < 0:
            raise LPError(f"min_separation must be >= 0, got {self.min_separation}")

    @property
    def pins_clock(self) -> bool:
        """True when the options pin or cap clock values.

        Only then can the constraint system be infeasible -- an
        unconstrained P2 always has a (large enough) feasible period -- so
        only then is a pre-flight graph diagnosis worth running.
        """
        return (
            self.fixed_period is not None
            or self.max_period is not None
            or bool(self.fixed_starts)
            or bool(self.fixed_widths)
        )

    def skew_of(self, phase: str) -> SkewBound:
        """The skew bound of a phase (zero bound when none is configured)."""
        if not self.skew:
            return _NO_SKEW
        return self.skew.get(phase, _NO_SKEW)


_NO_SKEW = SkewBound(0.0, 0.0)


@dataclass
class SMOProgram:
    """A generated SMO constraint system.

    ``families`` maps each constraint-family tag (``C1``, ``C2``, ``C3``,
    ``L1``, ``L2R``, ``FF``, ``FS``, plus extension families) to the list of
    constraint names generated for it; ``arc_of_constraint`` maps each L2R/FS
    row back to the circuit arc it came from, which is what critical-segment
    extraction uses.

    ``rhs_delay_sign`` records, per arc constraint, the derivative of its
    right-hand side with respect to that arc's combinational delay (+1 for
    L2R rows, -1 for FS rows).  The SMO coefficient matrix is exclusively
    topological, so a delay change moves only these constants --
    :func:`recost_arc_delay` exploits that to rebuild a perturbed program
    without re-walking the circuit.
    """

    program: LinearProgram
    graph: TimingGraph
    options: ConstraintOptions
    families: dict[str, list[str]] = field(default_factory=dict)
    arc_of_constraint: dict[str, tuple[str, str]] = field(default_factory=dict)
    rhs_delay_sign: dict[str, float] = field(default_factory=dict)
    #: Set by :func:`pin_period` on the program it derives.
    pinned: PeriodPin | None = field(default=None, repr=False, compare=False)

    @property
    def explicit_constraint_count(self) -> int:
        """Number of explicit LP rows (what the simplex actually sees)."""
        return len(self.program)

    @property
    def paper_constraint_count(self) -> int:
        """Constraint count under the paper's convention.

        The paper's tally for the GaAs example (91) counts the explicit
        inequality rows together with the nonnegativity constraints C4
        (``Tc`` and each ``s_i``, ``T_i``) and L3 (each ``D_i``), which this
        library keeps as implicit variable bounds.
        """
        k = self.graph.k
        return self.explicit_constraint_count + (2 * k + 1) + self.graph.l

    def family(self, tag: str) -> list[str]:
        return list(self.families.get(tag, []))

    def assert_topological(self) -> None:
        """Verify the Section VI property: all coefficients in {0, +/-1}.

        Only the base SMO families are required to be topological; extension
        families (duty cycles etc.) may introduce other coefficients.
        """
        base = {"C1", "C2", "C3", "L1", "L2R", "FF", "FS", "NR"}
        names = {
            name for tag, names in self.families.items() if tag in base
            for name in names
        }
        for con in self.program.constraints:
            if con.name not in names:
                continue
            for coeff in con.lhs.terms.values():
                if coeff not in (1.0, -1.0):
                    raise LPError(
                        f"non-topological coefficient {coeff} in {con.name}"
                    )


@dataclass(frozen=True)
class PeriodPin:
    """How :func:`pin_period` derived a program from ``source``.

    The derived program differs from the source only by its ``FIX[Tc]``
    row, so anything computed from the source's rows (the cycle engine's
    difference graph) carries over -- as long as neither program has
    gained a row or been replaced since; :meth:`holds` checks that.
    """

    source: SMOProgram
    source_program: LinearProgram
    source_rows: int
    program: LinearProgram
    rows: int
    period: float

    def holds(self, smo: SMOProgram) -> bool:
        """True while ``smo`` and the source still have the rows of the derivation."""
        return (
            smo.program is self.program
            and len(self.program) == self.rows
            and self.source.program is self.source_program
            and len(self.source_program) == self.source_rows
        )


def pin_period(smo: SMOProgram, period: float, name: str) -> SMOProgram:
    """``smo`` with ``Tc`` pinned at ``period``, without a circuit walk.

    The rows, in order, are those of ``build_program(graph,
    replace(options, fixed_period=period))``: a ``FIX[Tc]`` row where
    that build puts it (before the other FIX rows), or a new right-hand
    side when ``options.fixed_period`` already pins Tc.  Every other row
    is shared copy-on-write with ``smo`` (:meth:`LinearProgram.with_row`),
    and the result records the derivation in :attr:`SMOProgram.pinned`.
    The objective is ``smo``'s until the caller replaces it.
    """
    fix = smo.families.get("FIX", [])
    if smo.options.fixed_period is not None:
        program = smo.program.with_rhs({"FIX[Tc]": period})
        families = smo.families
    else:
        program = smo.program.with_row(
            "FIX[Tc]", {TC: 1.0}, Sense.EQ, period, before=fix[0] if fix else None
        )
        families = {**smo.families, "FIX": ["FIX[Tc]", *fix]}
    program.name = name
    return SMOProgram(
        program=program,
        graph=smo.graph,
        options=replace(smo.options, fixed_period=period),
        families=families,
        arc_of_constraint=smo.arc_of_constraint,
        rhs_delay_sign=smo.rhs_delay_sign,
        pinned=PeriodPin(
            smo, smo.program, len(smo.program), program, len(program), period
        ),
    )


def _ordering_flag(graph: TimingGraph, phase_i: str, phase_j: str) -> int:
    """The paper's C_ij over the circuit's phase ordering (eq. 1)."""
    return 0 if graph.phase_index(phase_i) < graph.phase_index(phase_j) else 1


def _shift_expr(graph: TimingGraph, phase_from: str, phase_to: str):
    """The phase-shift operator S_{from,to} as a linear expression (eq. 12).

    ``S_ij = s_i - (s_j + C_ij * Tc)``: adding it to a time referenced to
    the start of phase ``i`` (= ``phase_from``) re-references it to the
    start of phase ``j`` (= ``phase_to``).
    """
    c = _ordering_flag(graph, phase_from, phase_to)
    expr = var(s_var(phase_from)) - var(s_var(phase_to))
    if c:
        expr = expr - var(TC)
    return expr


def build_program(
    graph: TimingGraph,
    options: ConstraintOptions | None = None,
    name: str = "P2",
    setup_slack_var: str | None = None,
) -> SMOProgram:
    """Build the LP relaxation P2 (minimize Tc subject to C1-C4, L1, L2R, L3).

    The returned :class:`SMOProgram` carries the family index used for
    constraint counting, critical-segment extraction, and the NRIP baseline.

    When ``setup_slack_var`` names a variable, that variable is added to
    the left-hand side of every setup row (L1 and FS); callers can then
    maximize it to find the best uniform setup margin (see
    :mod:`repro.core.tuning`).  The default objective stays ``minimize Tc``
    either way; slack-maximizing callers replace it.
    """
    options = options or ConstraintOptions()
    lp = LinearProgram(name=name)
    smo = SMOProgram(program=lp, graph=graph, options=options)

    def add(tag: str, constraint) -> None:
        smo.families.setdefault(tag, []).append(constraint.name)

    tc = var(TC)
    lp.declare(TC)
    for phase in graph.phase_names:
        lp.declare(s_var(phase))
        lp.declare(t_var(phase))
    for sync in graph.synchronizers:
        lp.declare(d_var(sync.name))

    lp.minimize(tc)

    # ---- C1: periodicity --------------------------------------------------
    for phase in graph.phase_names:
        add("C1", lp.add_le(var(t_var(phase)), tc, name=f"C1_T[{phase}]"))
        add("C1", lp.add_le(var(s_var(phase)), tc, name=f"C1_s[{phase}]"))

    # ---- C2: phase ordering -----------------------------------------------
    for a, b in zip(graph.phase_names, graph.phase_names[1:]):
        add("C2", lp.add_le(var(s_var(a)), var(s_var(b)), name=f"C2[{a}<{b}]"))

    # ---- C3: phase nonoverlap over the K matrix ---------------------------
    for i, j in graph.io_phase_pairs():
        pi, pj = graph.phase_names[i], graph.phase_names[j]
        cji = _ordering_flag(graph, pj, pi)
        rhs = var(s_var(pj)) + var(t_var(pj)) - (cji * tc if cji else 0)
        if options.min_separation:
            rhs = rhs + options.min_separation
        # Worst-case skew: the input phase may start early and the output
        # phase may end late; keep them separated even then.
        pad = options.skew_of(pi).early + options.skew_of(pj).late
        if pad:
            rhs = rhs + pad
        add("C3", lp.add_ge(var(s_var(pi)), rhs, name=f"C3[{pi}/{pj}]"))

    # ---- L1 / FS: setup; L2R: relaxed propagation -------------------------
    # These families contain one row per latch/arc -- the only parts of the
    # program that grow with circuit size -- so they are emitted through the
    # pre-normalized :meth:`LinearProgram.add_row` fast path: coefficient
    # dicts are assembled directly from per-phase-pair shift templates
    # instead of chaining LinExpr arithmetic per row.  The produced rows
    # (names, coefficient sets, senses, right-hand sides) are identical to
    # the expression-based construction they replace.
    margin = options.setup_margin
    for sync in graph.synchronizers:
        if sync.is_latch:
            # With skew the closing edge may come early_i sooner.
            early = options.skew_of(sync.phase).early
            terms = {d_var(sync.name): 1.0}
            if setup_slack_var:
                terms[setup_slack_var] = 1.0
            terms[t_var(sync.phase)] = -1.0
            add(
                "L1",
                lp.add_row(
                    f"L1[{sync.name}]",
                    terms,
                    Sense.LE,
                    -(sync.setup + margin + early),
                ),
            )

    # Shift templates S_{from,to} per phase pair, as coefficient dicts:
    # ``plain`` is the operator itself (FS rows carry it on the lhs),
    # ``negated`` its sign flip (L2R rows move it across the inequality).
    shift_plain: dict[tuple[str, str], dict[str, float]] = {}
    shift_negated: dict[tuple[str, str], dict[str, float]] = {}
    for pf in graph.phase_names:
        for pt in graph.phase_names:
            c = _ordering_flag(graph, pf, pt)
            plain: dict[str, float] = {}
            if pf != pt:
                plain[s_var(pf)] = 1.0
                plain[s_var(pt)] = -1.0
            if c:
                plain[TC] = -1.0
            shift_plain[(pf, pt)] = plain
            shift_negated[(pf, pt)] = {n: -v for n, v in plain.items()}

    for arc in graph.arcs:
        src = graph[arc.src]
        dst = graph[arc.dst]
        pair = (src.phase, dst.phase)
        if dst.is_latch:
            if arc.src == arc.dst:
                # Self-loop: the departure terms cancel, leaving only the
                # (negated) shift operator -- same as the expression path.
                terms = dict(shift_negated[pair])
            else:
                terms = {d_var(dst.name): 1.0, d_var(src.name): -1.0}
                terms.update(shift_negated[pair])
            con = lp.add_row(
                f"L2R[{arc.src}->{arc.dst}]",
                terms,
                Sense.GE,
                src.delay + arc.delay,
            )
            add("L2R", con)
            smo.rhs_delay_sign[con.name] = 1.0
        else:
            assert isinstance(dst, FlipFlop)
            # With skew the triggering edge may come early_i sooner.
            dst_early = options.skew_of(dst.phase).early
            terms = {d_var(src.name): 1.0}
            terms.update(shift_plain[pair])
            if setup_slack_var:
                terms[setup_slack_var] = 1.0
            if dst.edge is not EdgeKind.RISE:
                terms[t_var(dst.phase)] = -1.0
            con = lp.add_row(
                f"FS[{arc.src}->{arc.dst}]",
                terms,
                Sense.LE,
                -(src.delay + arc.delay + dst.setup + margin + dst_early),
            )
            add("FS", con)
            smo.rhs_delay_sign[con.name] = -1.0
        smo.arc_of_constraint[con.name] = (arc.src, arc.dst)

    # ---- FF: pin flip-flop departures to their triggering edge ------------
    # Under skew, downstream consumers must survive the *latest* launch, so
    # the departure is pinned to the latest possible edge position.
    for ff in graph.flipflops:
        late = options.skew_of(ff.phase).late
        if ff.edge is EdgeKind.RISE:
            con = lp.add_eq(var(d_var(ff.name)), late, name=f"FF[{ff.name}]")
        else:
            con = lp.add_eq(
                var(d_var(ff.name)) - var(t_var(ff.phase)),
                late,
                name=f"FF[{ff.name}]",
            )
        add("FF", con)

    # ---- XS: skew floors on latch departures ------------------------------
    # A latch cannot launch before its (possibly late) opening edge.
    if options.skew:
        for sync in graph.latches:
            late = options.skew_of(sync.phase).late
            if late:
                add(
                    "XS",
                    lp.add_ge(
                        var(d_var(sync.name)), late, name=f"XS[{sync.name}]"
                    ),
                )

    # ---- NR: null departure (retardation) on selected phases --------------
    for phase in options.zero_departure_phases:
        if phase not in graph.phase_names:
            raise CircuitError(
                f"zero_departure_phases names unknown phase {phase!r}"
            )
        for sync in graph.synchronizers:
            if sync.phase == phase and sync.is_latch:
                con = lp.add_eq(
                    var(d_var(sync.name)), 0.0, name=f"NR[{sync.name}]"
                )
                add("NR", con)

    # ---- Extensions --------------------------------------------------------
    if options.min_width:
        for phase in graph.phase_names:
            add(
                "XW",
                lp.add_ge(
                    var(t_var(phase)), options.min_width, name=f"XW[{phase}]"
                ),
            )
    if options.max_period is not None:
        add("XP", lp.add_le(tc, options.max_period, name="XP[Tc]"))
    if options.fixed_period is not None:
        add("FIX", lp.add_eq(tc, options.fixed_period, name="FIX[Tc]"))
    for mapping, maker, tag in (
        (options.fixed_starts, s_var, "s"),
        (options.fixed_widths, t_var, "T"),
    ):
        if mapping:
            for phase, value in mapping.items():
                if phase not in graph.phase_names:
                    raise CircuitError(
                        f"fixed_{tag} names unknown phase {phase!r}"
                    )
                add(
                    "FIX",
                    lp.add_eq(var(maker(phase)), value, name=f"FIX[{tag}[{phase}]]"),
                )
    return smo


def recost_arc_delay(
    smo: SMOProgram, src: str, dst: str, value: float
) -> SMOProgram:
    """Re-cost an already-built program for a new ``src -> dst`` arc delay.

    Because every SMO coefficient is topological (0 or +/-1, Section VI), a
    combinational delay change never touches the constraint matrix -- only
    the constant side of the affected L2R/FS rows.  This rebuilds exactly
    those right-hand sides (``d rhs / d delay`` is recorded per row in
    :attr:`SMOProgram.rhs_delay_sign`) and shares everything else with the
    original program, so a parametric sweep pays O(rows) bookkeeping per
    point instead of a full :func:`build_program` circuit walk.

    The returned program is *structurally identical* to the original (same
    variables, constraint names and senses), so the arc's row names -- and
    the Tc solve's duals on them, the sweep's slope -- carry over.
    """
    arc = smo.graph.arc(src, dst)
    if arc is None:
        raise CircuitError(f"no combinational arc {src!r} -> {dst!r}")
    targets = {
        name
        for name, pair in smo.arc_of_constraint.items()
        if pair == (src, dst)
    }
    if not targets:  # pragma: no cover - every arc generates a row
        raise CircuitError(f"arc {src!r} -> {dst!r} generated no constraints")
    delta = float(value) - arc.delay
    updates: dict[str, float] = {}
    if delta:
        for con in smo.program.constraints:
            if con.name in targets:
                updates[con.name] = con.rhs + smo.rhs_delay_sign[con.name] * delta
    return SMOProgram(
        program=smo.program.with_rhs(updates) if updates else smo.program,
        graph=smo.graph.with_arc_delay(src, dst, float(value)),
        options=smo.options,
        families=smo.families,
        arc_of_constraint=smo.arc_of_constraint,
        rhs_delay_sign=smo.rhs_delay_sign,
    )


def build_maxplus_system(
    graph: TimingGraph,
    schedule: ClockSchedule,
    options: ConstraintOptions | None = None,
) -> MaxPlusSystem:
    """The propagation constraints L2 as a max-plus system at a fixed clock.

    With the clock variables frozen at a concrete schedule, eq. (17) becomes
    ``D_i = max(0, max_j(D_j + w_ji))`` with constant weights
    ``w_ji = Delta_DQj + Delta_ji + S_{p_j p_i}``.  Flip-flops enter as
    frozen nodes pinned to their triggering edge.  When ``options`` carries
    skew bounds, departure floors move to the latest possible enabling edge
    (worst-case launch).
    """
    _check_phases(graph, schedule)
    options = options or ConstraintOptions()
    nodes = list(graph.names)
    floors: dict[str, float] = {}
    frozen: set[str] = set()
    for sync in graph.synchronizers:
        late = options.skew_of(sync.phase).late
        if sync.is_latch:
            floors[sync.name] = late
        else:
            assert isinstance(sync, FlipFlop)
            frozen.add(sync.name)
            if sync.edge is EdgeKind.RISE:
                floors[sync.name] = late
            else:
                floors[sync.name] = schedule[sync.phase].width + late
    # Flip-flop departures do not depend on arrivals; only latch-bound arcs
    # become max-plus arcs.  Weights are computed vectorized: a k x k table
    # of phase shifts indexed by the (src, dst) phase ids of every arc.  The
    # addition order matches the scalar form ``(src.delay + arc.delay) +
    # shift`` bit for bit.
    live = [a for a in graph.arcs if graph[a.dst].is_latch]
    m = len(live)
    weights = np.zeros(m)
    if m:
        pidx = {name: i for i, name in enumerate(graph.phase_names)}
        shift = np.empty((graph.k, graph.k))
        for pf, i in pidx.items():
            for pt, j in pidx.items():
                shift[i, j] = schedule.phase_shift(pf, pt)
        src_delays = np.fromiter(
            (graph[a.src].delay for a in live), dtype=np.float64, count=m
        )
        arc_delays = np.fromiter((a.delay for a in live), dtype=np.float64, count=m)
        sp = np.fromiter(
            (pidx[graph[a.src].phase] for a in live), dtype=np.intp, count=m
        )
        dp = np.fromiter(
            (pidx[graph[a.dst].phase] for a in live), dtype=np.intp, count=m
        )
        weights = (src_delays + arc_delays) + shift[sp, dp]
    arcs = [
        WeightedArc(a.src, a.dst, w) for a, w in zip(live, weights.tolist())
    ]
    system = MaxPlusSystem(nodes=nodes, arcs=arcs, floors=floors, frozen=frozen)
    # Hand the already-computed weight vector to the array-kernel compiler
    # so a later compile_system() call re-costs without re-walking the arcs.
    prime_weights(system, weights)
    return system


def _check_phases(graph: TimingGraph, schedule: ClockSchedule) -> None:
    if tuple(schedule.names) != tuple(graph.phase_names):
        raise CircuitError(
            f"schedule phases {schedule.names} do not match circuit phases "
            f"{graph.phase_names} (same names, same order, required)"
        )


def schedule_from_values(
    graph: TimingGraph, values: Mapping[str, float], tol: float = 1e-7
) -> ClockSchedule:
    """Assemble a :class:`ClockSchedule` from LP solution values.

    Values within ``tol`` below zero (floating-point dust from the simplex)
    are snapped to exactly zero.  Callers that know their solver's actual
    tolerance should pass it instead of relying on the permissive default.
    """
    from repro.clocking.phase import ClockPhase  # local import to avoid cycle

    def clean(x: float) -> float:
        return 0.0 if -tol < x < 0.0 else x

    phases = [
        ClockPhase(name, clean(values[s_var(name)]), clean(values[t_var(name)]))
        for name in graph.phase_names
    ]
    return ClockSchedule(clean(values[TC]), phases)
