"""The default solve route: ``backend=None`` answers SMO programs on the cycle engine.

Pinned down here:

* **Routing** -- with no backend named, a program that comes with its
  SMO context goes to ``"cycle"``; a bare program keeps the dense
  ``"simplex"`` (or ``"sparse"`` above ``AUTO_SPARSE_ROWS``), and cache
  signatures keep ``None`` as ``None``.
* **Default-vs-paper differential gate** -- on every ``examples/*.lcd``
  and on seeded generated designs, default :func:`minimize_cycle_time`
  and the paper's dense tableau (``backend="simplex"``) agree on Tc,
  every schedule value and every departure to 1e-9 relative, and the
  cycle engine answered both the Tc and the compact pass without a
  silent fallback.
* **Certified duals** -- the critical-cycle multipliers satisfy the sign
  conditions, dual feasibility and strong duality, and the swept arc's
  dual is the finite-difference slope of Tc away from breakpoints.
"""

import pathlib
import random

import pytest

from repro.circuit.generate import random_multiloop_circuit
from repro.circuit.graph import DelayArc, TimingGraph
from repro.core.constraints import ConstraintOptions, build_program
from repro.core.mlp import MLPOptions, minimize_cycle_time
from repro.designs.generators import banked_array, pipeline
from repro.engine.jobspec import mlp_signature
from repro.errors import InfeasibleError
from repro.lang.parser import parse_circuit
from repro.lp.backends import AUTO_SPARSE_ROWS, solve
from repro.lp.model import Sense

REPO = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted(str(p) for p in (REPO / "examples").glob("*.lcd"))
SWEEP_DESIGN = REPO / "tests" / "data" / "pipeline64x2_seed7.lcd"


def _seeded(graph: TimingGraph, seed: int, spread: float = 0.02) -> TimingGraph:
    """``graph`` with every arc delay perturbed by a seeded +/-``spread``."""
    rng = random.Random(seed)
    arcs = []
    for arc in graph.arcs:
        delay = round(arc.delay * (1.0 + rng.uniform(-spread, spread)), 3)
        arcs.append(
            DelayArc(arc.src, arc.dst, delay, min(arc.min_delay, delay), arc.label)
        )
    return TimingGraph(graph.phase_names, graph.synchronizers, arcs)


SEEDED = [
    ("pipeline8x2", lambda: _seeded(pipeline(8, 2), 1)),
    ("pipeline16x4", lambda: _seeded(pipeline(16, 4), 2)),
    ("banked4x6", lambda: _seeded(banked_array(4, 6), 3)),
    ("banked8x14", lambda: _seeded(banked_array(8, 14), 4)),
    ("multiloop12", lambda: random_multiloop_circuit(12, 6, seed=5)),
    ("multiloop20k3", lambda: random_multiloop_circuit(20, 10, k=3, seed=6)),
]


def _load(path) -> TimingGraph:
    with open(path, encoding="utf-8") as handle:
        return parse_circuit(handle.read()).to_graph()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _assert_same_answer(graph: TimingGraph) -> None:
    default = minimize_cycle_time(graph)
    paper = minimize_cycle_time(graph, mlp=MLPOptions(backend="simplex"))
    assert default.extra["cycle"]["used"] is True, default.extra["cycle"]
    assert default.extra["compact"]["used"] is True, default.extra["compact"]
    assert default.lp_tc_result.backend == "cycle"
    assert paper.lp_tc_result.backend == "simplex"
    assert _close(default.period, paper.period)
    assert default.schedule.names == paper.schedule.names
    for mine, ref in zip(default.schedule, paper.schedule):
        assert _close(mine.start, ref.start), (mine, ref)
        assert _close(mine.width, ref.width), (mine, ref)
    assert default.departures.keys() == paper.departures.keys()
    for name, ref in paper.departures.items():
        assert _close(default.departures[name], ref), name


class TestRouting:
    def test_smo_context_routes_to_cycle(self, ex1):
        smo = build_program(ex1, ConstraintOptions())
        result = solve(smo.program, context=smo)
        assert result.backend == "cycle"
        assert result.extra["cycle"]["used"] is True

    def test_bare_program_keeps_the_dense_simplex(self, ex1):
        smo = build_program(ex1, ConstraintOptions())
        assert len(smo.program) <= AUTO_SPARSE_ROWS
        assert solve(smo.program).backend == "simplex"

    def test_foreign_context_falls_back_inside_cycle(self, ex1):
        smo = build_program(ex1, ConstraintOptions())
        result = solve(smo.program, context=object())
        assert result.extra["cycle"]["used"] is False
        assert result.extra["cycle"]["reason"] == "no SMOProgram context supplied"
        assert result.objective == pytest.approx(110.0)

    def test_named_backends_are_honoured(self, ex1):
        smo = build_program(ex1, ConstraintOptions())
        # "revised" is a second name for the sparse revised simplex.
        for name, answers in (
            ("simplex", "simplex"), ("revised", "sparse"), ("sparse", "sparse")
        ):
            result = solve(smo.program, backend=name, context=smo)
            assert result.backend == answers
            assert result.objective == pytest.approx(110.0)

    def test_signature_keeps_the_unnamed_backend(self):
        assert mlp_signature(MLPOptions())["backend"] is None


class TestDefaultVsPaper:
    """The default route and the paper's dense tableau give one answer."""

    def test_every_example_is_collected(self):
        assert len(EXAMPLES) >= 5

    @pytest.mark.parametrize("path", EXAMPLES)
    def test_examples(self, path):
        graph = _load(path)
        smo = build_program(graph, ConstraintOptions())
        if len(smo.program) > AUTO_SPARSE_ROWS:
            # Past the dense tableau's reach: the revised-simplex agreement
            # of this design is CI's `batch --backend cycle+check` run.
            result = minimize_cycle_time(graph, mlp=MLPOptions(verify=False))
            assert result.extra["cycle"]["used"] is True
            assert result.extra["compact"]["used"] is True
            return
        if not solve(smo.program, backend="simplex").ok:
            with pytest.raises(InfeasibleError):
                minimize_cycle_time(graph)
            return
        _assert_same_answer(graph)

    @pytest.mark.parametrize("name,factory", SEEDED, ids=[s[0] for s in SEEDED])
    def test_seeded_generators(self, name, factory):
        _assert_same_answer(factory())


def _dual_residuals(program, result):
    """Sign errors, dual infeasibility and duality gap of ``result.duals``."""
    reduced = program.objective.terms
    dual_value = program.objective.constant
    wrong_sign = []
    for con in program.constraints:
        y = result.duals[con.name]
        if (con.sense is Sense.LE and y > 1e-12) or (
            con.sense is Sense.GE and y < -1e-12
        ):
            wrong_sign.append(con.name)
        dual_value += y * con.rhs
        for var, coeff in con.lhs.terms.items():
            reduced[var] = reduced.get(var, 0.0) - y * coeff
    free = program.free_variables
    violation = max(
        [0.0] + [abs(d) if v in free else -d for v, d in reduced.items()]
    )
    return wrong_sign, violation, abs(dual_value - result.objective)


class TestCycleDuals:
    @pytest.mark.parametrize("name,factory", SEEDED, ids=[s[0] for s in SEEDED])
    def test_duals_are_certified_optimal(self, name, factory):
        smo = build_program(factory(), ConstraintOptions())
        result = solve(smo.program, context=smo)
        assert result.extra["cycle"]["used"] is True
        assert set(result.duals) == {c.name for c in smo.program.constraints}
        wrong_sign, violation, gap = _dual_residuals(smo.program, result)
        assert wrong_sign == []
        assert violation <= 1e-9
        assert gap <= 1e-9 * max(1.0, result.objective)
        assert any(result.duals.values())

    def test_pinned_floor_carries_the_price(self, ex1):
        # A clock pinned far above the loop bound: the FIX row binds alone.
        smo = build_program(ex1, ConstraintOptions(fixed_period=150.0))
        result = solve(smo.program, context=smo)
        assert result.extra["cycle"]["used"] is True
        priced = {k: v for k, v in result.duals.items() if v}
        assert list(priced.values()) == [pytest.approx(1.0)]
        wrong_sign, violation, gap = _dual_residuals(smo.program, result)
        assert (wrong_sign, violation, gap) == ([], 0.0, 0.0)

    @pytest.mark.parametrize("delay,slope", [(18.5, 0.0), (30.0, 1.0 / 29.0)])
    def test_swept_arc_dual_is_the_curve_slope(self, delay, slope):
        graph = _load(SWEEP_DESIGN)
        eps = 1e-3

        def tc(x):
            return minimize_cycle_time(
                graph.with_arc_delay("P31_0", "P32_0", x),
                mlp=MLPOptions(verify=False, compact=False),
            )

        dual = tc(delay).lp_tc_result.duals["L2R[P31_0->P32_0]"]
        measured = (tc(delay + eps).period - tc(delay - eps).period) / (2 * eps)
        assert dual == pytest.approx(slope, abs=1e-9)
        assert dual == pytest.approx(measured, abs=1e-6)
