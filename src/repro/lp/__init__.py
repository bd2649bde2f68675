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
* :mod:`repro.lp.sparse` / :mod:`repro.lp.sparse_lu` /
  :mod:`repro.lp.sparse_simplex` -- CSR/CSC constraint storage, sparse
  LU + eta-file basis factorization, and the revised simplex built on
  them: O(nnz) memory, the backend for 10k+ latch designs and the one
  the cycle engine falls back to;
* :mod:`repro.lp.scipy_backend` -- an optional cross-checking backend on
  top of :func:`scipy.optimize.linprog`;
* :mod:`repro.lp.sensitivity` -- binding-constraint and shadow-price
  reporting used for critical-segment analysis (Section V).

See ``docs/LP.md`` for the solver architecture tour.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

# Static checkers see every export; at run time each binds on first access.
if TYPE_CHECKING:
    from repro.lp.backends import available_backends as available_backends
    from repro.lp.backends import canonical_backend as canonical_backend
    from repro.lp.backends import solve as solve
    from repro.lp.expr import LinExpr as LinExpr
    from repro.lp.expr import var as var
    from repro.lp.model import Constraint as Constraint
    from repro.lp.model import LinearProgram as LinearProgram
    from repro.lp.model import LPCSRArrays as LPCSRArrays
    from repro.lp.model import Sense as Sense
    from repro.lp.result import LPResult as LPResult
    from repro.lp.result import LPStatus as LPStatus
    from repro.lp.sensitivity import SensitivityReport as SensitivityReport
    from repro.lp.sensitivity import sensitivity as sensitivity
    from repro.lp.simplex import SimplexOptions as SimplexOptions
    from repro.lp.simplex import solve_simplex as solve_simplex
    from repro.lp.sparse import CSCMatrix as CSCMatrix
    from repro.lp.sparse import CSRMatrix as CSRMatrix
    from repro.lp.sparse_simplex import SparseSimplexOptions as SparseSimplexOptions
    from repro.lp.sparse_simplex import solve_sparse_simplex as solve_sparse_simplex
    from repro.lp.standard_form import StandardForm as StandardForm

#: Every export and the module that defines it, imported on first access.
_EXPORTS = {
    "LinExpr": ".expr",
    "var": ".expr",
    "Constraint": ".model",
    "LinearProgram": ".model",
    "LPCSRArrays": ".model",
    "CSRMatrix": ".sparse",
    "CSCMatrix": ".sparse",
    "Sense": ".model",
    "LPResult": ".result",
    "LPStatus": ".result",
    "SimplexOptions": ".simplex",
    "SparseSimplexOptions": ".sparse_simplex",
    "StandardForm": ".standard_form",
    "solve_simplex": ".simplex",
    "solve_sparse_simplex": ".sparse_simplex",
    "available_backends": ".backends",
    "canonical_backend": ".backends",
    "solve": ".backends",
    "SensitivityReport": ".sensitivity",
    "sensitivity": ".sensitivity",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
