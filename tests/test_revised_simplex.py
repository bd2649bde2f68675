"""Tests for the revised simplex backend."""

import random

import numpy as np
import pytest

from repro.lp.backends import available_backends, solve
from repro.lp.expr import var
from repro.lp.model import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.revised_simplex import RevisedSimplexOptions, solve_revised_simplex
from repro.lp.simplex import solve_simplex

needs_scipy = pytest.mark.skipif(
    "scipy" not in available_backends(), reason="scipy backend unavailable"
)


class TestBasics:
    def test_bounded_optimum(self):
        lp = LinearProgram()
        x, y = var("x"), var("y")
        lp.minimize(-x - 2 * y)
        lp.add_le(x + y, 4, name="sum")
        lp.add_le(x, 3)
        lp.add_le(y, 2)
        r = solve_revised_simplex(lp)
        assert r.status is LPStatus.OPTIMAL
        assert r.objective == pytest.approx(-6.0)
        assert r.values == pytest.approx({"x": 2.0, "y": 2.0})

    def test_infeasible(self):
        lp = LinearProgram()
        lp.add_le(var("x"), -1)
        assert solve_revised_simplex(lp).status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram()
        lp.minimize(-var("x"))
        lp.add_ge(var("x"), 1)
        assert solve_revised_simplex(lp).status is LPStatus.UNBOUNDED

    def test_equality_and_free(self):
        lp = LinearProgram()
        lp.set_free("z")
        lp.minimize(var("z"))
        lp.add_eq(var("z") + var("x"), 5)
        lp.add_le(var("x"), 7)
        r = solve_revised_simplex(lp)
        assert r.objective == pytest.approx(-2.0)

    def test_duals_match_dense(self):
        lp = LinearProgram()
        x, y = var("x"), var("y")
        lp.minimize(-x - y)
        lp.add_le(x + 2 * y, 6, name="a")
        lp.add_le(2 * x + y, 6, name="b")
        dense = solve_simplex(lp)
        revised = solve_revised_simplex(lp)
        assert revised.objective == pytest.approx(dense.objective)
        for name in ("a", "b"):
            assert revised.duals[name] == pytest.approx(dense.duals[name])

    def test_periodic_refactorization(self):
        # A chain of coupled rows long enough to force many pivots through
        # a tiny refactor_every, exercising the rebuild path.
        lp = LinearProgram()
        total = var("x0")
        lp.add_ge(var("x0"), 1, name="base")
        for i in range(1, 12):
            lp.add_ge(var(f"x{i}") - var(f"x{i-1}"), 1, name=f"step{i}")
            total = total + var(f"x{i}")
        lp.minimize(total)
        r = solve_revised_simplex(lp, RevisedSimplexOptions(refactor_every=3))
        assert r.status is LPStatus.OPTIMAL
        assert r.extra["refactorizations"] > 0
        cold = solve_revised_simplex(lp)
        assert r.objective == pytest.approx(cold.objective)


def _random_feasible_lp(seed: int) -> LinearProgram:
    """A small random LP that is feasible (x = 0 works) and bounded (boxes)."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    lp = LinearProgram(name=f"rand{seed}")
    names = [f"x{i}" for i in range(n)]
    objective = None
    for name in names:
        coeff = rng.uniform(-5.0, 5.0)
        term = coeff * var(name)
        objective = term if objective is None else objective + term
        lp.add_le(var(name), rng.uniform(1.0, 10.0), name=f"box_{name}")
    lp.minimize(objective)
    for j in range(rng.randint(1, 4)):
        row = None
        for name in names:
            if rng.random() < 0.7:
                term = rng.uniform(-3.0, 3.0) * var(name)
                row = term if row is None else row + term
        if row is None:
            continue
        if rng.random() < 0.5:
            lp.add_le(row, rng.uniform(0.0, 8.0), name=f"le{j}")
        else:
            lp.add_ge(row, rng.uniform(-8.0, 0.0), name=f"ge{j}")
    return lp


class TestBackendAgreement:
    @needs_scipy
    def test_fifty_random_lps_agree(self):
        # Deterministic property test: dense simplex, revised simplex and
        # scipy must report the same optimum on feasible bounded LPs.
        for seed in range(50):
            lp = _random_feasible_lp(seed)
            dense = solve_simplex(lp)
            revised = solve_revised_simplex(lp)
            hi = solve(lp, backend="scipy")
            assert dense.status is LPStatus.OPTIMAL, seed
            assert revised.status is LPStatus.OPTIMAL, seed
            assert hi.status is LPStatus.OPTIMAL, seed
            assert revised.objective == pytest.approx(
                dense.objective, abs=1e-7
            ), seed
            assert revised.objective == pytest.approx(
                hi.objective, abs=1e-7
            ), seed

    def test_random_lps_agree_without_scipy(self):
        for seed in range(50, 70):
            lp = _random_feasible_lp(seed)
            dense = solve_simplex(lp)
            revised = solve_revised_simplex(lp)
            assert revised.objective == pytest.approx(dense.objective, abs=1e-7)
