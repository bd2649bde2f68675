"""The revised primal simplex: O(nnz) memory, LU + eta-file basis.

This is the package's one revised simplex, registered under both
``"sparse"`` and ``"revised"``.  It is a two-phase method with Dantzig
pricing, a switch to Bland's rule after a run of degenerate pivots, and a
ratio test that breaks ties on the smallest basis index.  Nothing dense
is ever formed:

* the constraint matrix is read straight from
  :attr:`~repro.lp.standard_form.StandardForm.a_csc` (CSC, O(nnz));
* the basis inverse is a sparse LU of ``B_0`` plus a product-form eta
  file (:class:`~repro.lp.sparse_lu.BasisFactorization`), periodically
  refactorized;
* pricing is one :meth:`~repro.lp.sparse.CSCMatrix.rmatvec` pass over
  the CSC columns;
* phase-1 artificials are *implicit* unit columns -- they have no
  storage at all.

Peak memory is O(nnz + fill), which for the paper's exclusively
topological matrices (a few +/-1 entries per row) stays linear in latch
count; a dense O(m^2) basis inverse is what once capped
``bench_scaling`` at ~1k latches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.errors import SolverError
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult, LPStatus, attach_slacks
from repro.lp.sparse import CSCMatrix
from repro.lp.sparse_lu import BasisFactorization
from repro.lp.standard_form import StandardForm
from repro.obs import trace

_F64 = npt.NDArray[np.float64]
_I64 = npt.NDArray[np.int64]


@dataclass(frozen=True)
class SparseSimplexOptions:
    """Tuning knobs for :func:`solve_sparse_simplex`."""

    tol: float = 1e-9
    max_iterations: int = 100_000
    #: switch from Dantzig's rule to Bland's rule after this many consecutive
    #: degenerate pivots (prevents cycling while keeping typical speed).
    bland_after: int = 50
    #: refactorize ``B_0`` after this many eta updates; bounds both the
    #: eta-file length (FTRAN/BTRAN cost) and the accumulated roundoff.
    refactor_every: int = 64
    #: LU engine: "auto" (scipy when importable, else pure python),
    #: "scipy", or "python".
    factorization: str = "auto"


class _SparseState:
    """Basis, factorization and basic solution, kept in sync across pivots.

    ``basis`` entries ``>= n_struct`` denote phase-1 artificials: the
    implicit unit column ``e_{art_row[col - n_struct]}``.
    """

    def __init__(
        self,
        a_csc: CSCMatrix,
        b: _F64,
        basis: _I64,
        art_row: _I64,
        options: SparseSimplexOptions,
    ) -> None:
        self.a = a_csc
        self.b = b
        self.basis = basis
        self.art_row = art_row
        self.n_struct = a_csc.shape[1]
        self.options = options
        self.refactorizations = 0  # periodic only; the initial one is free
        self.factors = BasisFactorization(
            a_csc,
            factorization=options.factorization,
            refactor_every=options.refactor_every,
        )
        self._scratch = np.zeros(a_csc.shape[0])
        self._factorize()

    def _basis_cols(self) -> _I64:
        """Basis columns with artificials encoded as unit-column sentinels."""
        cols = self.basis.copy()
        art = cols >= self.n_struct
        if art.any():
            cols[art] = -(self.art_row[cols[art] - self.n_struct] + 1)
        return cols

    def _factorize(self) -> None:
        try:
            self.factors.refactor(self._basis_cols())
        except (np.linalg.LinAlgError, RuntimeError):
            raise SolverError("singular basis matrix") from None
        self.x_b = self.factors.ftran(self.b)

    def column(self, col: int) -> _F64:
        """Column ``col`` of the full (structural + artificial) matrix."""
        if col < self.n_struct:
            return self.a.column_dense(col, out=self._scratch)
        self._scratch[:] = 0.0
        self._scratch[self.art_row[col - self.n_struct]] = 1.0
        return self._scratch

    def reduced_costs(self, costs: _F64, y: _F64) -> _F64:
        """``costs - y'A`` over structural then artificial columns."""
        n_art = len(self.art_row)
        reduced = np.empty(self.n_struct + n_art)
        reduced[: self.n_struct] = costs[: self.n_struct] - self.a.rmatvec(y)
        if n_art:
            reduced[self.n_struct :] = (
                costs[self.n_struct :] - y[self.art_row]
            )
        return reduced

    def btran_unit(self, i: int) -> _F64:
        """Row ``i`` of ``B^{-1}``, i.e. ``B^{-T} e_i``."""
        e = np.zeros(self.a.shape[0])
        e[i] = 1.0
        return self.factors.btran(e)

    def pivot(self, row: int, col: int, direction: _F64) -> None:
        """Bring ``col`` into the basis at ``row``; ``direction = B^-1 a_col``."""
        ur = direction[row]
        theta = max(0.0, self.x_b[row]) / ur
        self.x_b -= theta * direction
        self.x_b[row] = theta
        self.factors.update(row, direction)
        self.basis[row] = col
        if self.factors.should_refactor():
            self.refactorizations += 1
            if trace.is_enabled():
                trace.add_event("refactorize", count=self.refactorizations)
            self._factorize()


def _optimize(
    state: _SparseState,
    costs: _F64,
    allowed: npt.NDArray[np.bool_],
    options: SparseSimplexOptions,
) -> tuple[str, int]:
    """Optimize min costs'x from the current basis; returns (status, pivots)."""
    m = state.a.shape[0]
    tol = options.tol
    iterations = 0
    degenerate_run = 0
    traced = trace.is_enabled()  # hoisted so untraced pivots pay one bool test

    while True:
        if iterations >= options.max_iterations:
            raise SolverError(
                f"sparse simplex exceeded {options.max_iterations} iterations"
            )
        y = state.factors.btran(costs[state.basis])
        reduced = state.reduced_costs(costs, y)
        reduced[~allowed] = np.inf  # never enter disallowed columns
        reduced[state.basis] = np.inf  # basic columns have zero reduced cost

        candidates = np.where(reduced < -tol)[0]
        if candidates.size == 0:
            return "optimal", iterations
        if degenerate_run >= options.bland_after:
            col = int(candidates[0])
        else:
            col = int(candidates[np.argmin(reduced[candidates])])

        direction = state.factors.ftran(state.column(col))
        positive = direction > tol
        if not positive.any():
            return "unbounded", iterations
        ratios = np.full(m, np.inf)
        feasible_xb = np.maximum(state.x_b, 0.0)
        ratios[positive] = feasible_xb[positive] / direction[positive]
        best = ratios.min()
        # Tie-break on the smallest basis index (Bland-compatible).
        tied = np.where(ratios <= best + tol)[0]
        row = int(tied[np.argmin(state.basis[tied])])

        degenerate_run = degenerate_run + 1 if best <= tol else 0
        if traced:
            trace.add_event(
                "pivot",
                enter=col,
                leave=int(state.basis[row]),
                row=row,
                degenerate=bool(best <= tol),
            )
        state.pivot(row, col, direction)
        iterations += 1


def solve_sparse_simplex(
    program: LinearProgram,
    options: SparseSimplexOptions | None = None,
) -> LPResult:
    """Solve a :class:`LinearProgram` with the revised simplex.

    The result's ``extra`` dict carries ``"refactorizations"``,
    ``"phase1_pivots"`` and ``"factorization"`` -- the LU engine used
    (``"scipy"`` or ``"python"``).
    """
    start = time.perf_counter()
    result = _solve_sparse(program, options)
    result.solve_seconds = time.perf_counter() - start
    return result


def _solve_sparse(
    program: LinearProgram,
    options: SparseSimplexOptions | None,
) -> LPResult:
    options = options or SparseSimplexOptions()
    sf = StandardForm(program)
    m, n = sf.m, sf.n_struct
    tol = options.tol
    extra: dict[str, object] = {
        "refactorizations": 0,
        "phase1_pivots": 0,
    }

    if m == 0:
        if np.any(sf.c < -tol):
            return LPResult(
                status=LPStatus.UNBOUNDED, backend="sparse", extra=extra
            )
        result = LPResult(
            status=LPStatus.OPTIMAL,
            objective=sf.objective_constant,
            values=sf.recover_values(np.zeros(n)),
            duals={},
            backend="sparse",
            extra=extra,
        )
        return attach_slacks(result, program)

    iterations = 0
    # ------------------------------------------------------------------
    # Phase 1: find a basic feasible solution using artificial variables.
    # Rows with a +1 slack can use it directly; others get an implicit
    # artificial unit column.  The slack coefficient is
    # sign(sense) * row_sign, so "+1 slack" is a two-flag predicate --
    # no matrix access needed.
    # ------------------------------------------------------------------
    basis = np.full(m, -1, dtype=np.int64)
    artificial_rows = []
    for i in range(m):
        sc = sf.slack_col_of_row[i]
        if sc >= 0 and (sf.senses[i] == "<=") == (sf.row_sign[i] > 0):
            basis[i] = sc
        else:
            artificial_rows.append(i)
    n_art = len(artificial_rows)
    art_row = np.asarray(artificial_rows, dtype=np.int64)
    for k, i in enumerate(artificial_rows):
        basis[i] = n + k
    state = _SparseState(sf.a_csc, sf.b, basis, art_row, options)
    if n_art:
        phase1_costs = np.zeros(n + n_art)
        phase1_costs[n:] = 1.0
        allowed = np.ones(n + n_art, dtype=bool)
        status, it1 = _optimize(state, phase1_costs, allowed, options)
        iterations += it1
        extra["phase1_pivots"] = it1
        if trace.is_enabled():
            trace.add_event("phase1", pivots=it1)
        if status != "optimal":  # pragma: no cover - never unbounded
            raise SolverError(f"phase 1 ended with status {status}")
        infeasibility = float(
            np.maximum(state.x_b, 0.0)[state.basis >= n].sum()
        )
        if infeasibility > 1e-7:
            extra["refactorizations"] = state.refactorizations
            extra["factorization"] = state.factors.engine_name
            return LPResult(
                status=LPStatus.INFEASIBLE,
                iterations=iterations,
                backend="sparse",
                extra=extra,
            )
        # Drive any remaining zero-level artificials out of the basis.
        for i in range(m):
            if state.basis[i] >= n:
                # e_i' B^-1 A over structural columns, assembled
                # sparsely: (B^-T e_i)' A is one btran + one rmatvec.
                row_vec = state.a.rmatvec(state.btran_unit(i))
                pivotable = np.where(np.abs(row_vec) > tol)[0]
                if pivotable.size:
                    col = int(pivotable[0])
                    direction = state.factors.ftran(state.column(col))
                    state.pivot(i, col, direction)
                # else: redundant row; the artificial stays basic at 0.

    # ------------------------------------------------------------------
    # Phase 2: optimize the true objective with artificials locked out.
    # ------------------------------------------------------------------
    n_total = n + len(state.art_row)
    costs = np.zeros(n_total)
    costs[:n] = sf.c
    allowed = np.zeros(n_total, dtype=bool)
    allowed[:n] = True
    status, it2 = _optimize(state, costs, allowed, options)
    iterations += it2
    extra["refactorizations"] = state.refactorizations
    extra["factorization"] = state.factors.engine_name
    if status == "unbounded":
        return LPResult(
            status=LPStatus.UNBOUNDED,
            iterations=iterations,
            backend="sparse",
            extra=extra,
        )

    # One fresh factorization before extracting the solution: the eta
    # file is exact in exact arithmetic but accumulates roundoff, and
    # the 1e-9 cross-backend agreement bar at 25k rows is strict.
    if state.factors.n_etas:
        state._factorize()

    x = np.zeros(n_total)
    x[state.basis] = np.maximum(state.x_b, 0.0)
    objective = float(sf.c @ x[:n]) + sf.objective_constant
    values = sf.recover_values(x[:n])

    # Duals: y = c_B B^-1 (one btran), mapped back through the sign flips
    # of the b >= 0 normalization.
    y = state.factors.btran(costs[state.basis])
    duals = {
        name: float(y[i] * sf.row_sign[i])
        for i, name in enumerate(sf.row_names)
    }

    result = LPResult(
        status=LPStatus.OPTIMAL,
        objective=objective,
        values=values,
        duals=duals,
        iterations=iterations,
        backend="sparse",
        extra=extra,
    )
    return attach_slacks(result, program)
