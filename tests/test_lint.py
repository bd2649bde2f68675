"""Tests for the repro.lint subsystem (see docs/LINT.md).

Covers the difference-constraint graph construction, the negative-cycle
infeasibility certificates and the Tc lower bound that ``diagnose`` reads
off the ``repro.cycle`` engine (checked against the LP optimum), the rule
registry, the ``check_structure`` compatibility shim and the
``repro lint`` CLI.
"""

from __future__ import annotations

import glob
import json

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.generate import random_pipeline
from repro.circuit.validate import check_structure
from repro.cli import main
from repro.core.constraints import ConstraintOptions
from repro.core.mlp import MLPOptions, minimize_cycle_time
from repro.lang.parser import parse_file
from repro.lint import (
    LintRule,
    Severity,
    build_constraint_graph,
    diagnose,
    get_rule,
    registered_rules,
    run_lint,
    run_rules,
)
from repro.lint.rules import rule


class TestConstraintGraph:
    def test_example1_encoding_is_complete(self, ex1):
        from repro.core.constraints import build_program

        smo = build_program(ex1, ConstraintOptions())
        cg = build_constraint_graph(smo)
        assert not cg.skipped, "every SMO row should lower to an edge"
        assert not cg.contradictions
        assert "origin" in cg.nodes
        assert any(n.startswith("start[") for n in cg.nodes)
        assert any(n.startswith("dep[") for n in cg.nodes)
        assert cg.tc_floor >= 0.0

    def test_feasibility_threshold_matches_lp(self, ex1):
        """Feasible pinned at the LP Tc; a negative cycle 1.0 below it."""
        optimum = minimize_cycle_time(ex1).period
        at_optimum = diagnose(ex1, ConstraintOptions(fixed_period=optimum))
        assert at_optimum.certificate is None
        below = diagnose(ex1, ConstraintOptions(fixed_period=optimum - 1.0))
        certificate = below.certificate
        assert certificate is not None and certificate.kind == "period"
        assert certificate.cycle, "below the optimum a cycle must be negative"
        assert certificate.a_sum + certificate.b_sum * (optimum - 1.0) < 0.0

    @pytest.mark.parametrize("fixture", ["ex1", "ex2", "gaas", "fig1"])
    def test_karp_bound_equals_lp_optimum(self, fixture, request):
        """On the paper designs the bound is exact: it equals the LP Tc."""
        graph = request.getfixturevalue(fixture)
        bound = diagnose(graph).bound
        assert bound.exact
        optimum = minimize_cycle_time(graph).period
        assert bound.value == pytest.approx(optimum, abs=1e-9)
        assert bound.cycle, "the critical cycle must be reported"

    def test_karp_bound_never_exceeds_lp_on_examples(self):
        """For every shipped .lcd the bound is a true lower bound."""
        for path in sorted(glob.glob("examples/*.lcd")):
            graph = parse_file(path).to_graph()
            bound = diagnose(graph).bound
            optimum = minimize_cycle_time(graph).period
            assert bound.value <= optimum + 1e-9, path


class TestDiagnose:
    def test_period_certificate_names_constraints(self, ex1):
        diagnostics = diagnose(ex1, ConstraintOptions(max_period=50.0))
        certificate = diagnostics.certificate
        assert certificate is not None
        assert certificate.kind == "period"
        assert certificate.constraints
        families = {c.split("[", 1)[0] for c in certificate.constraints}
        assert families & {"C1", "C2", "C3", "L1", "L2R", "L3"}
        assert certificate.required_tc is not None
        assert certificate.required_tc > 50.0
        assert "XP[Tc]" in (certificate.pinned_by or "")

    def test_feasible_cap_has_no_certificate(self, ex1):
        diagnostics = diagnose(ex1, ConstraintOptions(max_period=200.0))
        assert diagnostics.certificate is None
        assert diagnostics.feasible

    def test_certificate_round_trips_to_dict(self, ex1):
        diagnostics = diagnose(ex1, ConstraintOptions(max_period=50.0))
        data = diagnostics.to_dict()
        assert data["certificate"]["kind"] == "period"
        assert data["tc_lower_bound"]["value"] == pytest.approx(110.0)

    def test_structural_certificate(self, ex1):
        """A phase too narrow for a latch's own D/Q loop: no Tc helps."""
        options = ConstraintOptions(fixed_widths={"phi1": 1.0})
        diagnostics = diagnose(ex1, options)
        certificate = diagnostics.certificate
        assert certificate is not None
        assert certificate.kind == "structural"
        assert set(certificate.constraints) == {
            "FIX[T[phi1]]", "L1[L1]", "L3[D[L1]]",
        }
        assert certificate.b_sum == 0.0 and certificate.a_sum < 0.0
        assert diagnostics.bound.value == float("inf")
        report = run_lint(ex1, options=options)
        assert any(f.code == "LINT301" for f in report.findings)

    def test_period_certificate_requires_the_bound(self, ex1):
        """The certificate names the critical cycle and the bound itself."""
        diagnostics = diagnose(ex1, ConstraintOptions(max_period=50.0))
        certificate = diagnostics.certificate
        assert certificate is not None and certificate.kind == "period"
        assert certificate.cycle == diagnostics.bound.cycle
        ratio = -certificate.a_sum / certificate.b_sum
        assert certificate.required_tc == diagnostics.bound.value == ratio
        assert certificate.tc == 50.0
        # Canonical listing: the cycle starts at its lowest-numbered edge.
        edges = diagnostics.graph.edges
        positions = [edges.index(edge) for edge in certificate.cycle]
        assert positions[0] == min(positions)

    def test_floor_above_cap_is_a_contradiction(self, ex1):
        """FIX[Tc] above XP[Tc]: the scalar rows alone conflict."""
        options = ConstraintOptions(fixed_period=130.0, max_period=100.0)
        diagnostics = diagnose(ex1, options)
        certificate = diagnostics.certificate
        assert certificate is not None
        assert certificate.kind == "contradiction"
        assert not certificate.cycle
        assert certificate.required_tc == diagnostics.bound.value == 130.0
        assert certificate.pinned_by == ("XP[Tc]",)

    @pytest.mark.parametrize(
        "fixture", ["ex1", "ex2", "gaas", "fig1", "seeded_pipeline"]
    )
    def test_bound_is_the_cycle_backend_optimum(self, fixture, request):
        """Lint and the cycle backend run one search: the same number."""
        if fixture == "seeded_pipeline":
            graph = random_pipeline(12, k=2, seed=7)
        else:
            graph = request.getfixturevalue(fixture)
        cycle = minimize_cycle_time(graph, mlp=MLPOptions(backend="cycle"))
        assert diagnose(graph).bound.value == cycle.period


class TestRuleRegistry:
    def test_known_rules_are_registered(self):
        codes = {r.code for r in registered_rules()}
        assert {"LINT101", "LINT103", "LINT111", "LINT112",
                "LINT201", "LINT202", "LINT210"} <= codes

    def test_get_rule_and_metadata(self):
        r = get_rule("LINT103")
        assert isinstance(r, LintRule)
        assert r.severity is Severity.ERROR
        assert r.legacy

    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError):
            @rule("LINT101", Severity.INFO, "duplicate")
            def _dup(graph, schedule, options):  # pragma: no cover
                return []

    def test_run_rules_flags_bad_latch(self):
        b = CircuitBuilder(phases=["phi1", "phi2"])
        # setup > delay violates the paper's Delta_DQ >= Delta_DC assumption.
        b.latch("L1", phase="phi1", setup=5, delay=3)
        b.latch("L2", phase="phi2", setup=1, delay=3)
        b.path("L1", "L2", 5)
        b.path("L2", "L1", 5)
        report = run_rules(b.build(), None)
        assert any(f.code == "LINT103" for f in report.findings)


class TestCheckStructureCompat:
    def test_clean_circuit(self, ex1):
        report = check_structure(ex1)
        assert report.ok
        assert not report.errors

    def test_warning_for_unclocked_phase(self):
        b = CircuitBuilder(phases=["phi1", "phi2", "phi3"])
        b.latch("L1", phase="phi1", setup=1, delay=1)
        b.latch("L2", phase="phi2", setup=1, delay=1)
        b.path("L1", "L2", 5)
        b.path("L2", "L1", 5)
        graph = b.build()
        report = check_structure(graph)
        assert report.ok
        assert any("phi3" in w for w in report.warnings)


class TestRunLint:
    def test_clean_design_is_ok(self, ex1):
        report = run_lint(ex1, source="ex1")
        assert report.ok
        assert any(f.code == "LINT310" for f in report.findings)
        assert report.diagnostics is not None

    def test_infeasible_cap_is_error(self, ex1):
        report = run_lint(ex1, options=ConstraintOptions(max_period=50.0))
        assert not report.ok
        assert any(f.code == "LINT302" for f in report.findings)

    def test_no_graph_diagnostics(self, ex1):
        report = run_lint(ex1, graph_diagnostics=False)
        assert report.diagnostics is None
        assert not any(f.code == "LINT310" for f in report.findings)


class TestLintCLI:
    def test_infeasible_fixture_reports_certificate(self, capsys):
        rc = main(["lint", "examples/infeasible_demo.lcd"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "LINT302" in out
        assert "requires Tc >=" in out

    def test_designs_manifest_is_clean(self, capsys):
        assert main(["lint", "examples/designs.txt"]) == 0
        out = capsys.readouterr().out
        assert "Tc lower bound" in out

    def test_json_output(self, capsys):
        rc = main(["lint", "examples/infeasible_demo.lcd",
                   "--format", "json"])
        assert rc == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert any(f["code"] == "LINT302" for f in data["findings"])
        assert data["diagnostics"]["certificate"]["kind"] == "period"

    def test_missing_file_exits_2(self, capsys):
        assert main(["lint", "examples/does_not_exist.lcd"]) == 2

    def test_minimize_preflight_certificate(self, tmp_path, capsys):
        from repro.designs import example1
        from repro.lang.writer import write_circuit

        path = tmp_path / "ex1.lcd"
        path.write_text(write_circuit(example1(80.0)))
        rc = main(["minimize", str(path), "--max-period", "50"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "lint" in err and "requires Tc >=" in err

    def test_minimize_no_lint_escape_hatch(self, tmp_path, capsys):
        from repro.designs import example1
        from repro.lang.writer import write_circuit

        path = tmp_path / "ex1.lcd"
        path.write_text(write_circuit(example1(80.0)))
        # With lint disabled, the LP itself reports the infeasibility.
        rc = main(["minimize", str(path), "--max-period", "50", "--no-lint"])
        assert rc != 0
        err = capsys.readouterr().err
        assert "lint" not in err
