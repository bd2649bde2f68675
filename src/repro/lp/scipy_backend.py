"""Optional LP backend built on :func:`scipy.optimize.linprog` (HiGHS).

The from-scratch simplex in :mod:`repro.lp.simplex` is the default backend;
this module exists to cross-check it (property tests assert both backends
agree) and to solve the large random instances used by the scaling
benchmarks quickly.
"""

from __future__ import annotations

import importlib.util
import time

import numpy as np

from repro.errors import SolverError
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult, LPStatus, attach_slacks

#: Whether scipy is installed.  ``scipy.optimize`` is the costliest import
#: in the package, so only the first :func:`solve_scipy` call loads it.
HAVE_SCIPY = importlib.util.find_spec("scipy") is not None


def solve_scipy(program: LinearProgram) -> LPResult:
    """Solve a :class:`LinearProgram` via scipy's HiGHS interface."""
    if not HAVE_SCIPY:
        raise SolverError("scipy is not installed; use the 'simplex' backend")
    from scipy.optimize import linprog

    arrays = program.to_arrays()

    # scipy wants only <= inequalities: flip the >= block.
    if arrays.a_ge.shape[0]:
        a_ub = np.vstack([arrays.a_le, -arrays.a_ge])
        b_ub = np.concatenate([arrays.b_le, -arrays.b_ge])
    else:
        a_ub, b_ub = arrays.a_le, arrays.b_le
    ub_names = arrays.names_le + arrays.names_ge
    ub_signs = [1.0] * len(arrays.names_le) + [-1.0] * len(arrays.names_ge)

    bounds = [
        (None, None) if free else (0.0, None) for free in arrays.free
    ]
    kwargs = {}
    if arrays.a_eq.shape[0]:
        kwargs["A_eq"] = arrays.a_eq
        kwargs["b_eq"] = arrays.b_eq
    if a_ub.shape[0]:
        kwargs["A_ub"] = a_ub
        kwargs["b_ub"] = b_ub

    # Time the solver call itself so `solve_seconds` means the same thing
    # for every backend: time inside the LP code, excluding our model
    # translation (the simplex backends likewise exclude LinearProgram
    # construction but include their own standard-form setup).
    start = time.perf_counter()
    res = linprog(arrays.c, bounds=bounds, method="highs", **kwargs)
    elapsed = time.perf_counter() - start
    nit = int(getattr(res, "nit", 0))

    if res.status == 2:
        return LPResult(
            status=LPStatus.INFEASIBLE,
            iterations=nit,
            backend="scipy",
            solve_seconds=elapsed,
        )
    if res.status == 3:
        return LPResult(
            status=LPStatus.UNBOUNDED,
            iterations=nit,
            backend="scipy",
            solve_seconds=elapsed,
        )
    if res.status != 0:
        raise SolverError(f"scipy linprog failed: {res.message}")

    values = {
        name: float(v) for name, v in zip(arrays.variables, res.x)
    }
    duals: dict[str, float] = {}
    if a_ub.shape[0] and res.ineqlin is not None:
        for name, sign, marginal in zip(ub_names, ub_signs, res.ineqlin.marginals):
            duals[name] = float(sign * marginal)
    if arrays.a_eq.shape[0] and res.eqlin is not None:
        for name, marginal in zip(arrays.names_eq, res.eqlin.marginals):
            duals[name] = float(marginal)

    result = LPResult(
        status=LPStatus.OPTIMAL,
        objective=float(res.fun) + arrays.objective_constant,
        values=values,
        duals=duals,
        iterations=nit,
        backend="scipy",
        solve_seconds=elapsed,
    )
    return attach_slacks(result, program)
