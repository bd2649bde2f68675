"""A small linear-programming toolkit.

The paper's MLP algorithm reduces optimal cycle-time calculation to a
linear program whose constraint matrix is purely topological (entries in
{0, +1, -1}).  This package provides everything needed to state and solve
such programs:

* :mod:`repro.lp.expr` -- symbolic linear expressions over named variables;
* :mod:`repro.lp.model` -- an LP model (objective, constraints, bounds);
* :mod:`repro.lp.simplex` -- a dense two-phase simplex solver written from
  scratch, mirroring the "dense-matrix LP solver which implements the
  standard simplex algorithm" of the paper's initial implementation;
* :mod:`repro.lp.standard_form` -- the shared ``min c'x, Ax = b, x >= 0``
  canonicalization both simplex backends solve;
* :mod:`repro.lp.revised_simplex` -- a revised simplex that keeps only
  the basis inverse, the reference the cycle engine falls back to;
* :mod:`repro.lp.sparse` / :mod:`repro.lp.sparse_lu` /
  :mod:`repro.lp.sparse_simplex` -- CSR/CSC constraint storage, sparse
  LU + eta-file basis factorization, and the sparse revised simplex
  built on them: O(nnz) memory, the backend for 10k+ latch designs;
* :mod:`repro.lp.scipy_backend` -- an optional cross-checking backend on
  top of :func:`scipy.optimize.linprog`;
* :mod:`repro.lp.sensitivity` -- binding-constraint and shadow-price
  reporting used for critical-segment analysis (Section V).

See ``docs/LP.md`` for the solver architecture tour.
"""

from repro.lp.backends import (
    available_backends,
    canonical_backend,
    solve,
)
from repro.lp.expr import LinExpr, var
from repro.lp.model import Constraint, LinearProgram, LPCSRArrays, Sense
from repro.lp.result import LPResult, LPStatus
from repro.lp.revised_simplex import RevisedSimplexOptions, solve_revised_simplex
from repro.lp.sensitivity import SensitivityReport, sensitivity
from repro.lp.simplex import SimplexOptions, solve_simplex
from repro.lp.sparse import CSCMatrix, CSRMatrix
from repro.lp.sparse_simplex import SparseSimplexOptions, solve_sparse_simplex
from repro.lp.standard_form import StandardForm

__all__ = [
    "LinExpr",
    "var",
    "Constraint",
    "LinearProgram",
    "LPCSRArrays",
    "CSRMatrix",
    "CSCMatrix",
    "Sense",
    "LPResult",
    "LPStatus",
    "RevisedSimplexOptions",
    "SimplexOptions",
    "SparseSimplexOptions",
    "StandardForm",
    "solve_revised_simplex",
    "solve_simplex",
    "solve_sparse_simplex",
    "available_backends",
    "canonical_backend",
    "solve",
    "SensitivityReport",
    "sensitivity",
]
