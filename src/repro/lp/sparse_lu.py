"""Sparse basis factorization for the revised simplex.

The sparse solver never forms or stores a dense ``B^{-1}``.  Instead the
basis is held as

    B_k = B_0 . E_1 . E_2 ... E_k

where ``B_0`` is LU-factorized and each ``E_t`` is a product-form eta
matrix (identity with one column replaced by ``d = B^{-1} a_q`` from the
pivot that produced it).  FTRAN/BTRAN then cost one sparse triangular
solve plus one cheap sparse pass per eta, and a periodic refactorization
(every ``refactor_every`` pivots) bounds both the eta-file length and the
accumulated roundoff.

Two LU engines implement the same 3-method protocol
(:meth:`solve` / :meth:`solve_transpose` / ``nnz_factors``):

* :class:`ScipyLU` -- ``scipy.sparse.linalg.splu``.  Simplex bases of the
  SMO difference-constraint LPs are near-triangular, so SuperLU factors a
  25 000-row basis in ~2 ms with almost no fill-in.  Preferred whenever
  the ``scipy`` extra is importable.
* :class:`MarkowitzLU` -- pure-python right-looking LU with Markowitz
  ``(r_i - 1)(c_j - 1)`` pivot selection and threshold partial pivoting.
  Always available; keeps ``backend="sparse"`` working on a numpy-only
  install (slower, but the same answers).

Engine choice is ``factorization="auto" | "scipy" | "python"`` on
:func:`make_factorization`; ``auto`` takes scipy when present.
"""

from __future__ import annotations

import importlib.util
from typing import Callable, Protocol

import numpy as np
import numpy.typing as npt

from repro.lp.sparse import CSCMatrix

_F64 = npt.NDArray[np.float64]
_I64 = npt.NDArray[np.int64]

#: Whether scipy is installed; :class:`ScipyLU` imports it on first use.
HAVE_SCIPY = importlib.util.find_spec("scipy") is not None

#: Entries below this magnitude are dropped when sparsifying eta columns
#: and elimination updates.  Well below the solver's 1e-9 optimality
#: tolerance, far above float64 noise at the paper's delay scales.
DROP_TOL = 1e-13


class LUEngine(Protocol):
    """What :class:`BasisFactorization` needs from an LU of ``B_0``."""

    name: str

    def solve(self, b: _F64) -> _F64:
        """Return ``B_0^{-1} b``."""

    def solve_transpose(self, b: _F64) -> _F64:
        """Return ``B_0^{-T} b``."""

    def nnz_factors(self) -> int:
        """Stored nonzeros in L + U (fill-in diagnostic)."""


class ScipyLU:
    """``scipy.sparse.linalg.splu`` behind the :class:`LUEngine` protocol."""

    name = "scipy"

    def __init__(
        self, m: int, indptr: _I64, rows: _I64, vals: _F64
    ) -> None:
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        mat = csc_matrix((vals, rows, indptr), shape=(m, m))
        self._lu = splu(mat.tocsc())

    def solve(self, b: _F64) -> _F64:
        out: _F64 = self._lu.solve(b)
        return out

    def solve_transpose(self, b: _F64) -> _F64:
        out: _F64 = self._lu.solve(b, trans="T")
        return out

    def nnz_factors(self) -> int:
        return int(self._lu.L.nnz + self._lu.U.nnz)


class MarkowitzLU:
    """Pure-python sparse LU with Markowitz ordering.

    Right-looking elimination over a dict-of-dicts matrix.  At each step
    the pivot column is the sparsest active column (lazy min-heap), and
    within it the pivot row minimizes the row count subject to threshold
    pivoting ``|a_ij| >= threshold * max_col |a_j|`` -- the classic
    merit/stability compromise.  The factorization is stored as the
    elimination operation sequence (the implicit L) plus the pivot rows
    (the permuted U), which is exactly what the four substitution passes
    in :meth:`solve` / :meth:`solve_transpose` need.
    """

    name = "python"

    def __init__(
        self,
        m: int,
        indptr: _I64,
        rows: _I64,
        vals: _F64,
        threshold: float = 0.1,
    ) -> None:
        self.m = m
        # row -> {col: value} of the active (not yet eliminated) matrix.
        work: dict[int, dict[int, float]] = {i: {} for i in range(m)}
        col_rows: dict[int, set[int]] = {j: set() for j in range(m)}
        for j in range(m):
            for e in range(int(indptr[j]), int(indptr[j + 1])):
                i = int(rows[e])
                v = float(vals[e])
                if v != 0.0:
                    work[i][j] = work[i].get(j, 0.0) + v
                    col_rows[j].add(i)

        import heapq

        heap = [(len(col_rows[j]), j) for j in range(m)]
        heapq.heapify(heap)
        active_cols = set(range(m))
        active_rows = set(range(m))

        # (eliminated_row, pivot_row, factor) in application order.
        self._ops: list[tuple[int, int, float]] = []
        # Per step: (pivot_row, pivot_col, pivot_val, rest-of-U-row items).
        self._steps: list[
            tuple[int, int, float, list[tuple[int, float]]]
        ] = []

        for _ in range(m):
            # Lazily pop until a heap entry matches the live count.
            pj = -1
            while heap:
                count, j = heapq.heappop(heap)
                if j not in active_cols:
                    continue
                if count != len(col_rows[j]):
                    heapq.heappush(heap, (len(col_rows[j]), j))
                    continue
                pj = j
                break
            if pj < 0 or not col_rows[pj]:
                raise np.linalg.LinAlgError(
                    "singular basis in MarkowitzLU"
                )
            col_abs_max = max(abs(work[i][pj]) for i in col_rows[pj])
            if col_abs_max <= DROP_TOL:
                raise np.linalg.LinAlgError(
                    "singular basis in MarkowitzLU"
                )
            # Min row count subject to the stability threshold.
            pi = -1
            best_count = m + 1
            for i in col_rows[pj]:
                if abs(work[i][pj]) < threshold * col_abs_max:
                    continue
                if len(work[i]) < best_count:
                    best_count = len(work[i])
                    pi = i
            pivot_val = work[pi][pj]
            pivot_row = work[pi]

            # Eliminate pj from every other active row that carries it.
            for i in [i for i in col_rows[pj] if i != pi]:
                factor = work[i][pj] / pivot_val
                self._ops.append((i, pi, factor))
                target = work[i]
                for j, v in pivot_row.items():
                    nv = target.get(j, 0.0) - factor * v
                    if abs(nv) <= DROP_TOL:
                        if j in target:
                            del target[j]
                            col_rows[j].discard(i)
                    else:
                        if j not in target:
                            col_rows[j].add(i)
                        target[j] = nv

            rest = [
                (j, v) for j, v in pivot_row.items() if j != pj
            ]
            self._steps.append((pi, pj, pivot_val, rest))
            active_cols.discard(pj)
            active_rows.discard(pi)
            for j in pivot_row:
                col_rows[j].discard(pi)
            del work[pi]

    def solve(self, b: _F64) -> _F64:
        y = np.array(b, dtype=np.float64)
        for i, pi, factor in self._ops:
            y[i] -= factor * y[pi]
        x = np.zeros(self.m)
        for pi, pj, pv, rest in reversed(self._steps):
            acc = y[pi]
            for j, v in rest:
                acc -= v * x[j]
            x[pj] = acc / pv
        return x

    def solve_transpose(self, b: _F64) -> _F64:
        # B^T s = c with B = L U  =>  U^T w = c then L^T s = w.
        c = np.array(b, dtype=np.float64)
        s = np.zeros(self.m)
        for pi, pj, pv, rest in self._steps:
            w = c[pj] / pv
            s[pi] = w
            for j, v in rest:
                c[j] -= v * w
        for i, pi, factor in reversed(self._ops):
            s[pi] -= factor * s[i]
        return s

    def nnz_factors(self) -> int:
        return len(self._ops) + sum(
            1 + len(rest) for *_rest3, rest in self._steps
        )


def make_factorization(
    factorization: str = "auto",
) -> Callable[[int, _I64, _I64, _F64], LUEngine]:
    """Resolve a ``factorization`` option to an LU-engine constructor."""
    if factorization == "auto":
        factorization = "scipy" if HAVE_SCIPY else "python"
    if factorization == "scipy":
        if not HAVE_SCIPY:
            raise RuntimeError(
                "factorization='scipy' requires the scipy extra"
            )
        return ScipyLU
    if factorization == "python":
        return MarkowitzLU
    raise ValueError(
        f"unknown factorization {factorization!r}; "
        "expected 'auto', 'scipy' or 'python'"
    )


class BasisFactorization:
    """``B^{-1}`` as LU(B_0) plus a product-form eta file.

    ``ftran``/``btran`` are the only read operations the simplex needs;
    ``update`` appends one eta after a pivot, and :meth:`should_refactor`
    tells the solver when to rebuild ``B_0`` from the current basis
    columns (which :meth:`refactor` does, resetting the eta file).
    """

    def __init__(
        self,
        a_csc: CSCMatrix,
        factorization: str = "auto",
        refactor_every: int = 64,
    ) -> None:
        self._a = a_csc
        self._make_engine = make_factorization(factorization)
        self.refactor_every = refactor_every
        self.engine: LUEngine | None = None
        self.engine_name = (
            "scipy"
            if factorization == "auto" and HAVE_SCIPY
            else ("python" if factorization == "auto" else factorization)
        )
        self.refactorizations = 0
        # Eta file: (pivot_position r, nonzero rows of d, values, d_r).
        self._etas: list[tuple[int, _I64, _F64, float]] = []

    # -- factorization ------------------------------------------------

    def refactor(self, basis_cols: _I64) -> None:
        """(Re)factorize ``B_0 = A[:, basis_cols]`` and clear the etas.

        ``basis_cols`` may contain ``-(i+1)`` sentinels meaning "unit
        column e_i" (phase-1 artificials), which stay sparse too.
        """
        m = self._a.shape[0]
        indptr, rows, vals = _basis_triplets(self._a, basis_cols)
        self.engine = self._make_engine(m, indptr, rows, vals)
        self._etas = []
        self.refactorizations += 1

    def should_refactor(self) -> bool:
        return len(self._etas) >= self.refactor_every

    @property
    def n_etas(self) -> int:
        return len(self._etas)

    # -- solves -------------------------------------------------------

    def ftran(self, v: _F64) -> _F64:
        """``B^{-1} v``: LU solve, then the etas in application order."""
        assert self.engine is not None
        x = self.engine.solve(v)
        for r, idx, dvals, dr in self._etas:
            xr = x[r] / dr
            x[idx] -= dvals * xr
            x[r] = xr
        return x

    def btran(self, c: _F64) -> _F64:
        """``B^{-T} c``: the eta transposes in reverse, then LU^T solve."""
        u = np.array(c, dtype=np.float64)
        for r, idx, dvals, dr in reversed(self._etas):
            # Row r of E^T is d^T: u_r = (c_r - sum_{i!=r} d_i c_i) / d_r.
            u[r] = (u[r] - float(dvals @ u[idx])) / dr
        assert self.engine is not None
        return self.engine.solve_transpose(u)

    # -- updates ------------------------------------------------------

    def update(self, r: int, d: _F64) -> None:
        """Record the pivot replacing basis position ``r``; ``d=B^{-1}a_q``."""
        dr = float(d[r])
        mask = np.abs(d) > DROP_TOL
        mask[r] = False
        idx = np.nonzero(mask)[0].astype(np.int64)
        self._etas.append((r, idx, d[idx].copy(), dr))

    def nnz_factors(self) -> int:
        assert self.engine is not None
        return self.engine.nnz_factors() + sum(
            1 + len(idx) for _, idx, _vals, _dr in self._etas
        )


def _basis_triplets(
    a: CSCMatrix, basis_cols: _I64
) -> tuple[_I64, _I64, _F64]:
    """CSC triplets of ``A[:, basis_cols]`` with unit-column sentinels.

    Entries of ``basis_cols`` that are ``>= 0`` select structural/slack
    columns of ``a``; an entry ``-(i+1)`` stands for the unit column
    ``e_i`` (phase-1 artificial) without it ever existing in ``a``.
    """
    cols = np.asarray(basis_cols, dtype=np.int64)
    real = cols >= 0
    if real.all():
        return a.gather_columns(cols)
    indptr = np.zeros(len(cols) + 1, dtype=np.int64)
    lengths = np.where(
        real, a.indptr[np.where(real, cols, 0) + 1]
        - a.indptr[np.where(real, cols, 0)], 1
    )
    np.cumsum(lengths, out=indptr[1:])
    rows = np.empty(int(indptr[-1]), dtype=np.int64)
    vals = np.empty(int(indptr[-1]), dtype=np.float64)
    for k, c in enumerate(cols):
        lo = int(indptr[k])
        if c >= 0:
            r, v = a.column(int(c))
            rows[lo : lo + len(r)] = r
            vals[lo : lo + len(r)] = v
        else:
            rows[lo] = -int(c) - 1
            vals[lo] = 1.0
    return indptr, rows, vals
