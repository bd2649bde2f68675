"""A revised primal simplex solver with an explicit basis inverse.

Where the dense solver (:mod:`repro.lp.simplex`) carries the whole tableau
through every pivot, this solver maintains only the basis inverse, updated
in product form and periodically refactorized for numerical hygiene.

Pivoting uses Dantzig's rule with the same Bland anti-cycling fallback as
the dense solver, so termination is guaranteed.  The returned
:class:`~repro.lp.result.LPResult` carries the periodic refactorization
count and the phase-1 pivot count in
:attr:`~repro.lp.result.LPResult.extra`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import SolverError
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult, LPStatus, attach_slacks
from repro.lp.standard_form import StandardForm
from repro.obs import trace


@dataclass(frozen=True)
class RevisedSimplexOptions:
    """Tuning knobs for :func:`solve_revised_simplex`."""

    tol: float = 1e-9
    max_iterations: int = 100_000
    #: switch from Dantzig's rule to Bland's rule after this many consecutive
    #: degenerate pivots (prevents cycling while keeping typical speed).
    bland_after: int = 50
    #: recompute the basis inverse from scratch after this many product-form
    #: updates; bounds the accumulated floating-point drift.
    refactor_every: int = 64


class _RevisedState:
    """Basis, basis inverse and basic solution, kept in sync across pivots."""

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        basis: np.ndarray,
        options: RevisedSimplexOptions,
    ) -> None:
        self.a = a
        self.b = b
        self.basis = basis
        self.options = options
        self.refactorizations = 0  # periodic only; the initial one is free
        self._pivots_since_refactor = 0
        self._factorize()

    def _factorize(self) -> None:
        try:
            self.b_inv = np.linalg.inv(self.a[:, self.basis])
        except np.linalg.LinAlgError:
            raise SolverError("singular basis matrix") from None
        self.x_b = self.b_inv @ self.b
        self._pivots_since_refactor = 0

    def pivot(self, row: int, col: int, direction: np.ndarray) -> None:
        """Bring ``col`` into the basis at ``row``; ``direction = B^-1 a_col``."""
        ur = direction[row]
        theta = max(0.0, self.x_b[row]) / ur
        self.x_b -= theta * direction
        self.x_b[row] = theta
        pivot_row = self.b_inv[row, :] / ur
        self.b_inv -= np.outer(direction, pivot_row)
        self.b_inv[row, :] = pivot_row
        self.basis[row] = col
        self._pivots_since_refactor += 1
        if self._pivots_since_refactor >= self.options.refactor_every:
            self.refactorizations += 1
            if trace.is_enabled():
                trace.add_event("refactorize", count=self.refactorizations)
            self._factorize()


def _optimize(
    state: _RevisedState,
    costs: np.ndarray,
    allowed: np.ndarray,
    options: RevisedSimplexOptions,
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
                f"revised simplex exceeded {options.max_iterations} iterations"
            )
        y = costs[state.basis] @ state.b_inv
        reduced = costs - y @ state.a
        reduced[~allowed] = np.inf  # never enter disallowed columns
        reduced[state.basis] = np.inf  # basic columns have zero reduced cost

        candidates = np.where(reduced < -tol)[0]
        if candidates.size == 0:
            return "optimal", iterations
        if degenerate_run >= options.bland_after:
            col = int(candidates[0])
        else:
            col = int(candidates[np.argmin(reduced[candidates])])

        direction = state.b_inv @ state.a[:, col]
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


def solve_revised_simplex(
    program: LinearProgram,
    options: RevisedSimplexOptions | None = None,
) -> LPResult:
    """Solve a :class:`LinearProgram` with the revised simplex method.

    The result's ``extra`` dict carries:

    * ``"refactorizations"`` -- periodic basis-inverse rebuilds;
    * ``"phase1_pivots"`` -- pivots spent in phase 1.
    """
    start = time.perf_counter()
    result = _solve_revised(program, options)
    result.solve_seconds = time.perf_counter() - start
    return result


def _solve_revised(
    program: LinearProgram,
    options: RevisedSimplexOptions | None,
) -> LPResult:
    options = options or RevisedSimplexOptions()
    sf = StandardForm(program)
    m, n = sf.m, sf.n_struct
    tol = options.tol
    extra: dict[str, object] = {
        "refactorizations": 0,
        "phase1_pivots": 0,
    }

    if m == 0:
        # No constraints: optimum is 0 for all nonnegative variables (any
        # negative cost coefficient would make the problem unbounded).
        if np.any(sf.c < -tol):
            return LPResult(status=LPStatus.UNBOUNDED, backend="revised", extra=extra)
        result = LPResult(
            status=LPStatus.OPTIMAL,
            objective=sf.objective_constant,
            values=sf.recover_values(np.zeros(n)),
            duals={},
            backend="revised",
            extra=extra,
        )
        return attach_slacks(result, program)

    iterations = 0
    # ------------------------------------------------------------------
    # Phase 1: find a basic feasible solution using artificial variables.
    # Rows with a +1 slack can use it directly; others get an artificial.
    # ------------------------------------------------------------------
    basis = np.full(m, -1, dtype=int)
    artificial_rows = []
    for i in range(m):
        sc = sf.slack_col_of_row[i]
        if sc >= 0 and sf.a[i, sc] == 1.0:
            basis[i] = sc
        else:
            artificial_rows.append(i)
    n_art = len(artificial_rows)
    a_full = sf.a
    if n_art:
        a_full = np.hstack([sf.a, np.zeros((m, n_art))])
        for k, i in enumerate(artificial_rows):
            a_full[i, n + k] = 1.0
            basis[i] = n + k
    state = _RevisedState(a_full, sf.b, basis, options)
    if n_art:
        phase1_costs = np.zeros(n + n_art)
        phase1_costs[n:] = 1.0
        allowed = np.ones(n + n_art, dtype=bool)
        status, it1 = _optimize(state, phase1_costs, allowed, options)
        iterations += it1
        extra["phase1_pivots"] = it1
        if trace.is_enabled():
            trace.add_event("phase1", pivots=it1)
        if status != "optimal":  # pragma: no cover - phase 1 never unbounded
            raise SolverError(f"phase 1 ended with status {status}")
        infeasibility = float(
            np.maximum(state.x_b, 0.0)[state.basis >= n].sum()
        )
        if infeasibility > 1e-7:
            extra["refactorizations"] = state.refactorizations
            return LPResult(
                status=LPStatus.INFEASIBLE,
                iterations=iterations,
                backend="revised",
                extra=extra,
            )
        # Drive any remaining zero-level artificials out of the basis.
        for i in range(m):
            if state.basis[i] >= n:
                row_vec = state.b_inv[i, :] @ state.a[:, :n]
                pivotable = np.where(np.abs(row_vec) > tol)[0]
                if pivotable.size:
                    col = int(pivotable[0])
                    direction = state.b_inv @ state.a[:, col]
                    state.pivot(i, col, direction)
                # else: the row is redundant; the artificial stays basic at 0.

    # ------------------------------------------------------------------
    # Phase 2: optimize the true objective with artificials locked out.
    # ------------------------------------------------------------------
    n_total = state.a.shape[1]
    costs = np.zeros(n_total)
    costs[:n] = sf.c
    allowed = np.zeros(n_total, dtype=bool)
    allowed[:n] = True
    status, it2 = _optimize(state, costs, allowed, options)
    iterations += it2
    extra["refactorizations"] = state.refactorizations
    if status == "unbounded":
        return LPResult(
            status=LPStatus.UNBOUNDED,
            iterations=iterations,
            backend="revised",
            extra=extra,
        )

    x = np.zeros(n_total)
    x[state.basis] = np.maximum(state.x_b, 0.0)
    objective = float(sf.c @ x[:n]) + sf.objective_constant
    values = sf.recover_values(x[:n])

    # Duals come straight from the basis inverse: y = c_B B^-1, mapped back
    # through the sign flips of the b >= 0 normalization.
    y = costs[state.basis] @ state.b_inv
    duals = {
        name: float(y[i] * sf.row_sign[i]) for i, name in enumerate(sf.row_names)
    }

    result = LPResult(
        status=LPStatus.OPTIMAL,
        objective=objective,
        values=values,
        duals=duals,
        iterations=iterations,
        backend="revised",
        extra=extra,
    )
    return attach_slacks(result, program)
