"""The ``"revised"`` backend name, as a caller that names it sees it.

``"revised"`` is a registry name for the one revised simplex
(:mod:`repro.lp.sparse_simplex`); options, cache keys and signatures
that name it keep their meaning. These tests go through
:func:`repro.lp.backends.solve` with the default solver options, so they
cover the name's routing as well as the answers behind it.
"""

import pytest

from repro.lp.backends import available_backends, solve
from repro.lp.expr import var
from repro.lp.model import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.simplex import solve_simplex
from repro.lp.sparse_simplex import SparseSimplexOptions

from tests.test_sparse_simplex import _assert_agrees_with_dense, _random_feasible_lp


def _revised(lp: LinearProgram):
    return solve(lp, backend="revised")


class TestBasics:
    def test_bounded_optimum(self):
        lp = LinearProgram()
        x, y = var("x"), var("y")
        lp.minimize(-x - 2 * y)
        lp.add_le(x + y, 4, name="sum")
        lp.add_le(x, 3)
        lp.add_le(y, 2)
        r = _revised(lp)
        assert r.status is LPStatus.OPTIMAL
        assert r.objective == pytest.approx(-6.0)
        assert r.values == pytest.approx({"x": 2.0, "y": 2.0})
        assert "factorization" in r.extra

    def test_infeasible(self):
        lp = LinearProgram()
        lp.add_le(var("x"), -1)
        assert _revised(lp).status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram()
        lp.minimize(-var("x"))
        lp.add_ge(var("x"), 1)
        assert _revised(lp).status is LPStatus.UNBOUNDED

    def test_equality_and_free(self):
        lp = LinearProgram()
        lp.set_free("z")
        lp.minimize(var("z"))
        lp.add_eq(var("z") + var("x"), 5)
        lp.add_le(var("x"), 7)
        r = _revised(lp)
        assert r.objective == pytest.approx(-2.0)

    def test_duals_match_dense(self):
        lp = LinearProgram()
        x, y = var("x"), var("y")
        lp.minimize(-x - y)
        lp.add_le(x + 2 * y, 6, name="a")
        lp.add_le(2 * x + y, 6, name="b")
        dense = solve_simplex(lp)
        revised = _revised(lp)
        assert revised.objective == pytest.approx(dense.objective)
        for name in ("a", "b"):
            assert revised.duals[name] == pytest.approx(dense.duals[name])

    def test_periodic_refactorization(self):
        # A chain of coupled rows long enough that the default
        # refactor_every is reached: the named backend rebuilds B_0 on
        # its own, without the caller tuning anything.
        n = 2 * SparseSimplexOptions().refactor_every
        lp = LinearProgram()
        total = var("x0")
        lp.add_ge(var("x0"), 1, name="base")
        for i in range(1, n):
            lp.add_ge(var(f"x{i}") - var(f"x{i-1}"), 1, name=f"step{i}")
            total = total + var(f"x{i}")
        lp.minimize(total)
        r = _revised(lp)
        assert r.status is LPStatus.OPTIMAL
        assert r.extra["refactorizations"] > 0
        # x_i = i + 1 at the optimum.
        assert r.objective == pytest.approx(n * (n + 1) / 2)


class TestBackendAgreement:
    def test_fifty_random_lps_agree(self):
        # Deterministic property test: the dense tableau, the named
        # revised backend and (when installed) scipy report one optimum
        # on feasible bounded LPs.
        have_scipy = "scipy" in available_backends()
        for seed in range(50):
            lp = _random_feasible_lp(seed)
            dense = solve_simplex(lp)
            revised = _revised(lp)
            assert dense.status is LPStatus.OPTIMAL, seed
            assert revised.status is LPStatus.OPTIMAL, seed
            assert revised.objective == pytest.approx(
                dense.objective, abs=1e-7
            ), seed
            if have_scipy:
                hi = solve(lp, backend="scipy")
                assert hi.status is LPStatus.OPTIMAL, seed
                assert revised.objective == pytest.approx(
                    hi.objective, abs=1e-7
                ), seed

    def test_random_lps_agree_without_scipy(self):
        # The in-repo Markowitz LU engine, whatever else is installed.
        _assert_agrees_with_dense(
            range(50, 70), SparseSimplexOptions(factorization="python")
        )
