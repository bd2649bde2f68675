"""Tests for the LP backend registry."""

import pytest

from repro.errors import SolverError
from repro.lp.backends import (
    DEFAULT_BACKEND,
    available_backends,
    canonical_backend,
    register_backend,
    solve,
    supports_context,
)
from repro.lp.expr import var
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult, LPStatus


def tiny_lp():
    lp = LinearProgram()
    lp.minimize(var("x"))
    lp.add_ge(var("x"), 3, name="lb")
    return lp


class TestRegistry:
    def test_simplex_always_available(self):
        assert "simplex" in available_backends()
        assert DEFAULT_BACKEND == "simplex"

    def test_default_solve(self):
        r = solve(tiny_lp())
        assert r.objective == pytest.approx(3.0)
        assert r.backend == "simplex"

    @pytest.mark.parametrize("name", ["revised", "sparse"])
    def test_revised_simplex_backends_registered(self, name):
        assert name in available_backends()
        assert canonical_backend(name) == name
        assert not supports_context(name)
        r = solve(tiny_lp(), backend=name)
        # One revised simplex answers under both names.
        assert r.backend == "sparse"
        assert r.objective == pytest.approx(3.0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SolverError, match="unknown LP backend"):
            solve(tiny_lp(), backend="cplex")

    def test_custom_backend_registration(self):
        calls = []

        def fake(program):
            calls.append(program)
            return LPResult(
                status=LPStatus.OPTIMAL, objective=42.0, backend="fake"
            )

        register_backend("fake-solver", fake)
        try:
            r = solve(tiny_lp(), backend="fake-solver")
            assert r.objective == 42.0
            assert len(calls) == 1
            assert "fake-solver" in available_backends()
        finally:
            from repro.lp import backends

            backends._BACKENDS.pop("fake-solver", None)

    def test_scipy_listed_when_importable(self):
        try:
            import scipy  # noqa: F401
        except ImportError:
            pytest.skip("scipy not installed")
        assert "scipy" in available_backends()


class TestGaasTuningCrossCheck:
    def test_gaas_has_zero_margin_at_its_optimum(self):
        # The 4.4 ns optimum is set by a setup-bounded cycle (the result
        # flip-flop's capture), so the best uniform margin at 4.4 ns is 0.
        from repro.core.tuning import maximize_slack
        from repro.designs import gaas_datapath

        tuned = maximize_slack(gaas_datapath(), 4.4)
        assert tuned.slack == pytest.approx(0.0, abs=1e-9)

    def test_gaas_gains_margin_with_period(self):
        from repro.core.tuning import maximize_slack
        from repro.designs import gaas_datapath

        tuned = maximize_slack(gaas_datapath(), 5.0)
        assert tuned.slack > 0
