"""The revised simplex: LU engines, eta updates, and backend agreement.

Three layers of coverage:

* the factorization substrate -- :class:`MarkowitzLU` (pure python) and
  :class:`ScipyLU` against dense numpy reference solves, plus the
  product-form eta file of :class:`BasisFactorization` under simulated
  pivot sequences with periodic refactorization;
* the solver -- :func:`solve_sparse_simplex` on the classic small cases
  (bounded / infeasible / unbounded / equality + free variables / duals)
  and on random LPs, always checked against the dense tableau
  ``simplex`` (and scipy when it is installed);
* the pipeline -- a hypothesis property test pushing random multiloop
  circuits and the structured generator families through every backend
  (``simplex``, ``sparse``, ``cycle``, and ``scipy`` when installed)
  demanding one optimum and one sanitized schedule.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.generate import random_multiloop_circuit
from repro.core.mlp import MLPOptions, minimize_cycle_time
from repro.designs.generators import banked_array, pipeline
from repro.lp.backends import available_backends, solve
from repro.lp.expr import var
from repro.lp.model import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.simplex import solve_simplex
from repro.lp.sparse import DENSE_STATS, csc_from_triplets
from repro.lp.sparse_lu import (
    HAVE_SCIPY,
    BasisFactorization,
    MarkowitzLU,
    make_factorization,
)
from repro.lp.sparse_simplex import SparseSimplexOptions, solve_sparse_simplex

ENGINES = ["python"] + (["scipy"] if HAVE_SCIPY else [])
HAVE_SCIPY_BACKEND = "scipy" in available_backends()


def _random_sparse_csc(m: int, seed: int, density: float = 0.3):
    """A well-conditioned random sparse matrix (dominant 2.0 diagonal)."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for j in range(m):
        rows.append(j)
        cols.append(j)
        vals.append(2.0)
        for i in range(m):
            if i != j and rng.random() < density:
                rows.append(i)
                cols.append(j)
                vals.append(float(rng.uniform(-1.0, 1.0)))
    return csc_from_triplets(
        (m, m),
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals, dtype=np.float64),
    )


class TestLUEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_solve_matches_numpy(self, engine, seed):
        m = 9
        a = _random_sparse_csc(m, seed)
        dense = a.to_dense(site="test")
        lu = make_factorization(engine)(m, a.indptr, a.indices, a.data)
        rng = np.random.default_rng(seed + 100)
        b = rng.uniform(-5.0, 5.0, size=m)
        np.testing.assert_allclose(lu.solve(b), np.linalg.solve(dense, b), atol=1e-9)
        np.testing.assert_allclose(
            lu.solve_transpose(b), np.linalg.solve(dense.T, b), atol=1e-9
        )

    def test_markowitz_rejects_singular(self):
        rows = np.array([0, 0], dtype=np.int64)
        cols = np.array([0, 1], dtype=np.int64)
        vals = np.array([1.0, 1.0], dtype=np.float64)
        a = csc_from_triplets((2, 2), rows, cols, vals)
        with pytest.raises(np.linalg.LinAlgError):
            MarkowitzLU(2, a.indptr, a.indices, a.data)

    def test_markowitz_reports_factor_nnz(self):
        a = _random_sparse_csc(6, seed=5)
        lu = MarkowitzLU(6, a.indptr, a.indices, a.data)
        assert lu.nnz_factors() >= 6  # at least the pivots


class TestBasisFactorizationEtas:
    """The eta file must track an explicitly-updated dense basis exactly."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_updates_match_dense_reference(self, engine):
        m = 8
        n_cols = 24
        rng = np.random.default_rng(42)
        rows, cols, vals = [], [], []
        for j in range(n_cols):
            picked = rng.choice(m, size=3, replace=False)
            for i in picked:
                rows.append(int(i))
                cols.append(j)
                vals.append(float(rng.uniform(0.5, 2.0)))
        a = csc_from_triplets(
            (m, n_cols),
            np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64),
            np.array(vals, dtype=np.float64),
        )
        dense_a = a.to_dense(site="test")

        fact = BasisFactorization(a, factorization=engine, refactor_every=5)
        # Start from the identity basis via the unit-column sentinels.
        basis = [-(i + 1) for i in range(m)]
        fact.refactor(basis)
        dense_b = np.eye(m)

        for step in range(12):
            entering = int(rng.integers(0, n_cols))
            col = np.zeros(m)
            s, e = a.indptr[entering], a.indptr[entering + 1]
            col[a.indices[s:e]] = a.data[s:e]
            d = fact.ftran(col)
            candidates = np.nonzero(np.abs(d) > 1e-6)[0]
            if candidates.size == 0:
                continue
            r = int(candidates[rng.integers(0, candidates.size)])
            fact.update(r, d)
            dense_b[:, r] = dense_a[:, entering]
            basis[r] = entering
            if fact.should_refactor():
                fact.refactor(basis)
                assert fact.n_etas == 0

            rhs = rng.uniform(-3.0, 3.0, size=m)
            np.testing.assert_allclose(
                fact.ftran(rhs), np.linalg.solve(dense_b, rhs), atol=1e-8
            )
            np.testing.assert_allclose(
                fact.btran(rhs), np.linalg.solve(dense_b.T, rhs), atol=1e-8
            )
        assert fact.refactorizations >= 2


class TestSparseSolverBasics:
    def test_bounded_optimum(self):
        lp = LinearProgram()
        x, y = var("x"), var("y")
        lp.minimize(-x - 2 * y)
        lp.add_le(x + y, 4, name="sum")
        lp.add_le(x, 3)
        lp.add_le(y, 2)
        r = solve_sparse_simplex(lp)
        assert r.status is LPStatus.OPTIMAL
        assert r.objective == pytest.approx(-6.0)
        assert r.values == pytest.approx({"x": 2.0, "y": 2.0})
        assert "factorization" in r.extra

    def test_infeasible(self):
        lp = LinearProgram()
        lp.add_le(var("x"), -1)
        assert solve_sparse_simplex(lp).status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram()
        lp.minimize(-var("x"))
        lp.add_ge(var("x"), 1)
        assert solve_sparse_simplex(lp).status is LPStatus.UNBOUNDED

    def test_equality_and_free(self):
        lp = LinearProgram()
        lp.set_free("z")
        lp.minimize(var("z"))
        lp.add_eq(var("z") + var("x"), 5)
        lp.add_le(var("x"), 7)
        r = solve_sparse_simplex(lp)
        assert r.objective == pytest.approx(-2.0)

    def test_duals_match_revised(self):
        lp = LinearProgram()
        x, y = var("x"), var("y")
        lp.minimize(-x - y)
        lp.add_le(x + 2 * y, 6, name="a")
        lp.add_le(2 * x + y, 6, name="b")
        sparse = solve_sparse_simplex(lp)
        dense = solve_simplex(lp)
        assert sparse.objective == pytest.approx(dense.objective)
        for name in ("a", "b"):
            assert sparse.duals[name] == pytest.approx(dense.duals[name])

    def test_empty_program(self):
        lp = LinearProgram()
        lp.minimize(var("x"))
        r = solve_sparse_simplex(lp)
        assert r.status is LPStatus.OPTIMAL
        assert r.objective == pytest.approx(0.0)

    def test_periodic_refactorization(self):
        lp = LinearProgram()
        total = var("x0")
        lp.add_ge(var("x0"), 1, name="base")
        for i in range(1, 12):
            lp.add_ge(var(f"x{i}") - var(f"x{i-1}"), 1, name=f"step{i}")
            total = total + var(f"x{i}")
        lp.minimize(total)
        r = solve_sparse_simplex(lp, SparseSimplexOptions(refactor_every=3))
        assert r.status is LPStatus.OPTIMAL
        assert r.extra["refactorizations"] > 0
        assert r.objective == pytest.approx(solve_sparse_simplex(lp).objective)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_forced_engine(self, engine):
        lp = LinearProgram()
        x, y = var("x"), var("y")
        lp.minimize(-x - y)
        lp.add_le(x + 2 * y, 6)
        lp.add_le(2 * x + y, 6)
        r = solve_sparse_simplex(lp, SparseSimplexOptions(factorization=engine))
        assert r.status is LPStatus.OPTIMAL
        assert r.extra["factorization"] == engine
        assert r.objective == pytest.approx(-4.0)


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


def _assert_agrees_with_dense(seeds, options):
    for seed in seeds:
        lp = _random_feasible_lp(seed)
        dense = solve_simplex(lp)
        sparse = solve_sparse_simplex(lp, options)
        assert dense.status is LPStatus.OPTIMAL, seed
        assert sparse.status is dense.status, seed
        assert sparse.objective == pytest.approx(dense.objective, abs=1e-7), seed
        for name, value in dense.duals.items():
            assert sparse.duals[name] == pytest.approx(value, abs=1e-8), seed
        if HAVE_SCIPY_BACKEND:
            highs = solve(lp, backend="scipy")
            assert sparse.objective == pytest.approx(highs.objective, abs=1e-7), seed


class TestAgainstRevised:
    """The revised simplex against the paper's dense tableau (and HiGHS)."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fifty_random_lps_agree(self, engine):
        _assert_agrees_with_dense(
            range(50), SparseSimplexOptions(factorization=engine)
        )


def _schedule_tuple(result):
    sched = result.schedule
    return [
        (p.name, round(p.start, 6), round(p.width, 6)) for p in sched.phases
    ]


AGREEMENT_BACKENDS = ["simplex", "sparse", "cycle"] + (
    ["scipy"] if HAVE_SCIPY_BACKEND else []
)


class TestFourBackendAgreement:
    """Property: all backends produce one optimum and one sanitized schedule."""

    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=20),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_multiloop(self, n, seed):
        circuit = random_multiloop_circuit(n, n_extra_arcs=n // 2, k=2, seed=seed)
        self._check_agreement(circuit)

    @pytest.mark.parametrize(
        "circuit_factory",
        [
            lambda: pipeline(6, 3),
            lambda: pipeline(8, 2, k=4),
            lambda: banked_array(3, 6),
            lambda: banked_array(2, 10, k=4),
        ],
    )
    def test_generator_families(self, circuit_factory):
        self._check_agreement(circuit_factory())

    def _check_agreement(self, circuit):
        results = {}
        for backend in AGREEMENT_BACKENDS:
            results[backend] = minimize_cycle_time(
                circuit, mlp=MLPOptions(backend=backend, sanitize=True)
            )
        reference = results["simplex"]
        ref_schedule = _schedule_tuple(reference)
        for backend, result in results.items():
            assert result.period == pytest.approx(
                reference.period, abs=1e-9
            ), backend
            assert result.extra["sanitize"].ok, backend
            # Every backend shares one canonical tie-break pass on the
            # graph, so the reported schedules must be *identical*, not
            # merely equally optimal.
            assert _schedule_tuple(result) == ref_schedule, backend


class TestDenseObservability:
    def test_small_views_do_not_count(self):
        lp = _random_feasible_lp(0)
        before = DENSE_STATS.count
        lp.to_arrays()  # tiny: under the threshold, stays silent
        assert DENSE_STATS.count == before

    def test_large_views_count_and_meter(self):
        from repro.lp.sparse import note_dense_materialization

        before = (DENSE_STATS.count, DENSE_STATS.cells)
        note_dense_materialization("test.site", rows=2001, cols=10)
        assert DENSE_STATS.count == before[0] + 1
        assert DENSE_STATS.cells == before[1] + 2001 * 10
        DENSE_STATS.reset()
        assert DENSE_STATS.count == 0
