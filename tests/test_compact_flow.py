"""The compact tie-break pass as a min-cost flow on the cycle graph.

The pass pins Tc at its optimum and minimizes ``sum(s) + sum(T) + sum(D)``
(:func:`repro.core.mlp.build_compact_program`).  Its answer is defined as
the *greatest* point of that LP's optimal face, which the graph route
computes directly.  Pinned down here:

* **Agreement** -- on the paper designs the schedule equals the dense
  tableau simplex's answer on the same ``P2-compact`` program; on seeded
  generator designs the objectives agree and every LP backend reports
  the same schedule.
* **Definition** -- no point of the optimal face has a later event time
  (phase start or end, absolute departure) than the returned one.
* **Fallback** -- a skipped row or a non-integer objective hands the
  program to a simplex and says why.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.mlp as mlp_module
from repro.circuit.graph import DelayArc, TimingGraph
from repro.core.analysis import analyze
from repro.core.constraints import ConstraintOptions, d_var, s_var, t_var
from repro.core.mlp import MLPOptions, build_compact_program, minimize_cycle_time
from repro.designs import (
    banked_array,
    example1,
    example2,
    fig1_circuit,
    gaas_datapath,
    pipeline,
)
from repro.engine.execute import execute_job
from repro.engine.jobspec import MinimizeJob
from repro.lint import sanitize_solution
from repro.lp.backends import available_backends, solve
from repro.lp.expr import var

DESIGNS = [
    ("example1", example1),
    ("example2", example2),
    ("fig1", fig1_circuit),
    ("gaas", gaas_datapath),
]
IDS = [name for name, _ in DESIGNS]

BACKENDS = [
    b
    for b in ("simplex", "revised", "sparse", "cycle", "scipy")
    if b in available_backends()
]


def _compact(graph):
    """The solved default run and its ``P2-compact`` program."""
    result = minimize_cycle_time(graph)
    smo = build_compact_program(graph, ConstraintOptions(), result.period)
    return result, smo


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _perturbed(graph, seed, spread=0.02):
    """``graph`` with every arc delay moved by up to +-``spread``."""
    rng = random.Random(seed)
    arcs = [
        DelayArc(
            arc.src,
            arc.dst,
            round(arc.delay * (1.0 + rng.uniform(-spread, spread)), 3),
            min_delay=0.0,
            label=arc.label,
        )
        for arc in graph.arcs
    ]
    return TimingGraph(graph.phase_names, graph.synchronizers, arcs)


class TestPaperDesigns:
    @pytest.mark.parametrize("name,factory", DESIGNS, ids=IDS)
    def test_schedule_equals_dense_simplex(self, name, factory):
        result, smo = _compact(factory())
        assert result.extra["compact"] == {
            "used": True,
            "reason": None,
            "pivots": 0,
        }
        reference = solve(smo.program, backend="simplex")
        for variable in smo.program.variables:
            assert _close(
                result.lp_result.values[variable], reference.values[variable]
            ), variable

    @pytest.mark.parametrize("name,factory", DESIGNS, ids=IDS)
    def test_no_face_point_is_greater(self, name, factory):
        # "Greatest" is in event times -- phase starts and ends and
        # absolute departures -- the coordinates of the graph's nodes.
        graph = factory()
        result, smo = _compact(graph)
        tie_break = smo.program.objective
        optimum = tie_break.evaluate(result.lp_result.values)
        events = {}
        for phase in graph.phase_names:
            events[f"start[{phase}]"] = var(s_var(phase))
            events[f"end[{phase}]"] = var(s_var(phase)) + var(t_var(phase))
        for sync in graph.synchronizers:
            events[f"dep[{sync.name}]"] = var(s_var(sync.phase)) + var(
                d_var(sync.name)
            )
        for node, time in events.items():
            face = build_compact_program(
                graph, ConstraintOptions(), result.period
            ).program
            face.add_row("face", tie_break.terms, "<=", optimum)
            face.minimize(-time)
            highest = solve(face, backend="revised")
            assert highest.ok
            assert time.evaluate(highest.values) <= (
                time.evaluate(result.lp_result.values)
                + 1e-9 * max(1.0, optimum)
            ), node

    def test_gaas_takes_the_greatest_not_the_least_element(self):
        # The least element of the GaAs face opens phi2 at 0 with width
        # 4.4; the canonical (greatest) one keeps the published layout.
        result = minimize_cycle_time(gaas_datapath())
        values = result.lp_result.values
        assert values[s_var("phi2")] == pytest.approx(0.2, abs=1e-9)
        assert values[t_var("phi2")] == pytest.approx(4.2, abs=1e-9)

    @pytest.mark.parametrize("name,factory", DESIGNS, ids=IDS)
    def test_check_mode_cross_checks_compact(self, name, factory):
        result = minimize_cycle_time(
            factory(), mlp=MLPOptions(backend="cycle+check")
        )
        info = result.lp_result.extra["cycle"]
        assert info["used"] is True
        assert info["check"]["backend"] == "revised"
        assert abs(info["check"]["delta"]) <= 1e-9 * max(
            1.0, abs(info["check"]["objective"])
        )

    def test_batch_payload_records_compact(self):
        job = execute_job(MinimizeJob(graph=example1()))
        assert job.payload["compact"]["used"] is True
        assert job.metrics["compact_fallbacks"] == 0
        assert "compact" in job.metrics["stages"]


class TestGeneratedDesigns:
    @settings(max_examples=12, deadline=None)
    @given(
        family=st.sampled_from(["pipeline", "banked_array"]),
        size=st.integers(min_value=1, max_value=3),
        depth=st.integers(min_value=1, max_value=3),
        k=st.sampled_from([2, 3]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_backends_agree(self, family, size, depth, k, seed):
        if family == "pipeline":
            graph = pipeline(depth + 1, size, k=k)
        else:
            # the loop length (chain depth + 2) must be a multiple of k
            graph = banked_array(size, k * (depth + 1) - 2, k=k)
        graph = _perturbed(graph, seed)
        results = {
            backend: minimize_cycle_time(
                graph, mlp=MLPOptions(backend=backend)
            )
            for backend in BACKENDS
        }
        result = results["cycle"]
        assert result.extra["compact"]["used"] is True
        smo = build_compact_program(graph, ConstraintOptions(), result.period)
        reference = solve(smo.program, backend="simplex")
        objective = smo.program.objective
        assert _close(
            objective.evaluate(result.lp_result.values), reference.objective
        )
        for backend, other in results.items():
            for variable, value in result.lp_result.values.items():
                assert _close(other.lp_result.values[variable], value), (
                    backend,
                    variable,
                )
        assert analyze(graph, result.schedule).feasible
        report = sanitize_solution(graph, result.schedule, result.departures)
        assert report.ok, report.violations


class TestFallback:
    def test_skipped_row_falls_back_to_the_lp(self, monkeypatch):
        # A row over two departures is not a difference constraint: the
        # graph lowering skips it, so the pass must not trust the graph.
        build = mlp_module.build_compact_program
        programs = []

        def with_sum_row(graph, options, period):
            smo = build(graph, options, period)
            smo.program.add_row(
                "extra_sum", {"D[A1]": 1.0, "D[A2]": 1.0}, ">=", 5.0
            )
            programs.append(smo.program)
            return smo

        monkeypatch.setattr(mlp_module, "build_compact_program", with_sum_row)
        result = minimize_cycle_time(example2())
        compact = result.extra["compact"]
        assert compact["used"] is False
        assert "not difference constraints" in compact["reason"]
        assert compact["pivots"] > 0
        reference = solve(programs[0], backend="revised")
        for variable, value in reference.values.items():
            assert _close(result.lp_result.values[variable], value), variable

    def test_fractional_objective_falls_back_to_the_lp(self):
        graph = fig1_circuit()
        period = minimize_cycle_time(graph).period
        smo = build_compact_program(graph, ConstraintOptions(), period)
        smo.program.minimize(smo.program.objective * 0.5)
        result = solve(smo.program, backend="cycle", context=smo)
        info = result.extra["cycle"]
        assert info["used"] is False
        assert "not an integer" in info["reason"]
        reference = solve(smo.program, backend="revised")
        assert _close(result.objective, reference.objective)

    def test_unpinned_program_falls_back(self):
        graph = example1()
        smo = build_compact_program(graph, ConstraintOptions(), 110.0)
        free = mlp_module.build_program(graph, ConstraintOptions())
        free.program.minimize(smo.program.objective)
        result = solve(free.program, backend="cycle", context=free)
        assert result.extra["cycle"]["used"] is False
        assert "not pinned" in result.extra["cycle"]["reason"]
