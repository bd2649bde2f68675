"""The graph-native minimum-Tc backend (:mod:`repro.cycle`).

Three layers of guarantees are pinned down here:

* **Agreement** -- on every bundled paper design and on randomly
  generated feasible circuits, ``backend="cycle"`` reproduces the revised
  simplex optimum to 1e-9 and its decoded schedule passes the P1
  sanitizer.
* **Fallback** -- whenever the cycle route cannot *certify* its answer
  (missing SMO context, or an LP row the graph lowering skipped that the
  decoded point violates), it transparently re-solves with the revised
  simplex and records why.
* **Plumbing** -- registry capabilities, the shared graph/structure
  caches, jobspec cache-key normalization, and serve-layer backend
  validation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.generate import random_multiloop_circuit, random_pipeline
from repro.core.constraints import build_program
from repro.core.mlp import MLPOptions, minimize_cycle_time
from repro.cycle import (
    clear_cycle_cache,
    compile_cycle_graph,
    cycle_cache_stats,
    minimum_feasible_period,
    solve_cycle,
)
from repro.designs import example1, example2, fig1_circuit, gaas_datapath
from repro.engine.jobspec import mlp_signature
from repro.lint import (
    build_constraint_graph,
    clear_graph_cache,
    constraint_graph_for,
    graph_cache_stats,
    sanitize_solution,
    structure_fingerprint,
)
from repro.lp.backends import (
    available_backends,
    solve,
    supports_context,
)
from repro.serve.protocol import RequestError, mlp_from_request

DESIGNS = [
    ("example1@80", lambda: example1(80.0)),
    ("example2", example2),
    ("fig1", fig1_circuit),
    ("gaas", gaas_datapath),
]


def _tc(graph, backend, **kw):
    mlp = MLPOptions(backend=backend, verify=False, **kw)
    return minimize_cycle_time(graph, mlp=mlp)


class TestPaperDesigns:
    @pytest.mark.parametrize("name,factory", DESIGNS, ids=[d[0] for d in DESIGNS])
    def test_matches_revised_simplex(self, name, factory):
        graph = factory()
        ref = _tc(graph, "revised")
        res = _tc(graph, "cycle")
        scale = max(1.0, abs(ref.period))
        assert res.period == pytest.approx(ref.period, abs=1e-9 * scale)
        info = res.extra["cycle"]
        # The graph route must actually be taken on the paper designs --
        # a silent fallback would still agree but defeat the point.
        assert info["used"] is True
        assert info["jumps"] >= 1
        report = sanitize_solution(graph, res.schedule, res.departures)
        assert report.ok, report.violations

    @pytest.mark.parametrize("name,factory", DESIGNS, ids=[d[0] for d in DESIGNS])
    def test_check_mode_cross_checks_and_sanitizes(self, name, factory):
        res = _tc(factory(), "cycle+check")
        check = res.extra["cycle"]["check"]
        assert check["backend"] == "sparse"
        assert abs(check["delta"]) <= 1e-9 * max(1.0, abs(res.period))
        # cycle+check forces the sanitizer even when not requested.
        assert res.extra["sanitize"].ok


class TestRandomCircuits:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=14),
        extra=st.integers(min_value=0, max_value=8),
        k=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_cycle_equals_revised(self, n, extra, k, seed):
        graph = random_multiloop_circuit(n, n_extra_arcs=extra, k=k, seed=seed)
        ref = _tc(graph, "revised")
        res = _tc(graph, "cycle", sanitize=True)
        scale = max(1.0, abs(ref.period))
        assert res.period == pytest.approx(ref.period, abs=1e-9 * scale)
        assert res.extra["sanitize"].ok

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_pipeline_cycle_equals_revised(self, n, seed):
        graph = random_pipeline(n, k=2, seed=seed)
        ref = _tc(graph, "revised")
        res = _tc(graph, "cycle", sanitize=True)
        scale = max(1.0, abs(ref.period))
        assert res.period == pytest.approx(ref.period, abs=1e-9 * scale)
        assert res.extra["sanitize"].ok


class TestFallback:
    def test_skipped_row_forces_lp_fallback(self):
        # A GE row over two departures is not a difference constraint, so
        # the graph lowering skips it; with a large rhs the cycle optimum
        # strictly under-constrains the LP and certification must fail.
        smo = build_program(example2())
        smo.program.add_row(
            "extra_sum", {"D[A1]": 1.0, "D[A2]": 1.0}, ">=", 1.0e5
        )
        res = solve(smo.program, backend="cycle", context=smo)
        info = res.extra["cycle"]
        assert info["used"] is False
        assert "under-constrains" in info["reason"]
        assert info["fallback_backend"] == "sparse"
        # The uncertified graph bound is still a valid lower bound.
        ref = solve(smo.program, backend="revised")
        assert res.objective == pytest.approx(ref.objective, abs=1e-9)
        assert info["bound"] <= res.objective + 1e-9

    def test_missing_context_falls_back(self):
        smo = build_program(fig1_circuit())
        res = solve(smo.program, backend="cycle")
        info = res.extra["cycle"]
        assert info["used"] is False
        assert "context" in info["reason"]
        ref = solve(smo.program, backend="revised")
        assert res.objective == pytest.approx(ref.objective, abs=1e-9)

    def test_foreign_program_falls_back(self):
        smo = build_program(fig1_circuit())
        other = build_program(example2())
        res = solve_cycle(smo.program, context=other)
        assert res.extra["cycle"]["used"] is False


class TestCaches:
    def test_structure_reused_across_rebuilds(self):
        clear_graph_cache()
        clear_cycle_cache()
        smo1 = build_program(example2())
        cg1 = constraint_graph_for(smo1)
        compile_cycle_graph(cg1, key=structure_fingerprint(smo1))
        assert graph_cache_stats()["misses"] == 1
        assert cycle_cache_stats()["misses"] == 1
        # A structurally identical program (same circuit, fresh build)
        # hits both the skeleton and the CSR structure caches.
        smo2 = build_program(example2())
        cg2 = constraint_graph_for(smo2)
        compile_cycle_graph(cg2, key=structure_fingerprint(smo2))
        assert graph_cache_stats()["hits"] >= 1
        assert cycle_cache_stats()["hits"] >= 1

    def test_instance_memo_returns_same_graph(self):
        smo = build_program(fig1_circuit())
        assert constraint_graph_for(smo) is constraint_graph_for(smo)

    def test_cached_graph_matches_direct_build(self):
        smo = build_program(gaas_datapath())
        direct = build_constraint_graph(smo)
        cached = constraint_graph_for(smo)
        assert direct.nodes == cached.nodes
        assert [
            (e.tail, e.head, e.a, e.b, e.constraint) for e in direct.edges
        ] == [(e.tail, e.head, e.a, e.b, e.constraint) for e in cached.edges]
        assert direct.tc_lower == cached.tc_lower
        assert direct.tc_upper == cached.tc_upper
        assert direct.skipped == cached.skipped

    def test_solver_reports_jump_budget(self):
        smo = build_program(example2())
        comp = compile_cycle_graph(constraint_graph_for(smo))
        period = minimum_feasible_period(comp)
        assert period.status == "optimal"
        assert period.jumps >= 1
        assert period.bf_rounds >= 1


class TestPlumbing:
    def test_registry_capabilities(self):
        backends = available_backends()
        assert "cycle" in backends
        assert "cycle+check" in backends
        assert supports_context("cycle")
        assert supports_context("cycle+check")
        assert not supports_context("revised")

    def test_jobspec_normalizes_check_variant(self):
        plain = mlp_signature(MLPOptions(backend="cycle"))
        checked = mlp_signature(MLPOptions(backend="cycle+check"))
        assert plain == checked
        assert checked["backend"] == "cycle"

    def test_protocol_rejects_unknown_backend(self):
        with pytest.raises(RequestError, match="unknown LP backend"):
            mlp_from_request({"backend": "cplex"})
        mlp = mlp_from_request({"backend": "cycle+check"})
        assert mlp.backend == "cycle+check"
