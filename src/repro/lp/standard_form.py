"""Conversion of a :class:`LinearProgram` to simplex standard form.

All three simplex backends (the dense tableau solver in
:mod:`repro.lp.simplex`, the revised solver in
:mod:`repro.lp.revised_simplex` and the sparse revised solver in
:mod:`repro.lp.sparse_simplex`) operate on the same canonical shape::

    min c'x   s.t.   Ax = b,  b >= 0,  x >= 0

built here: free variables are split into positive/negative parts, slack
columns turn inequalities into equalities, and rows are sign-normalized so
every right-hand side is nonnegative (the flips are remembered for dual
recovery).

The matrix is assembled *sparsely* -- straight from the program's CSR
storage into a CSC layout (:attr:`StandardForm.a_csc`), O(nnz) work and
memory.  The dense ``(m, n_struct)`` array the legacy solvers index is a
lazy cached property (:attr:`StandardForm.a`); materializing it above
2000 rows is counted and reported by :mod:`repro.lp.sparse` so accidental
densification of a large program is visible.
"""

from __future__ import annotations

import numpy as np

from repro.lp.model import LinearProgram, Sense
from repro.lp.sparse import CSCMatrix, csc_from_triplets


class StandardForm:
    """min c'x  s.t.  Ax = b (b >= 0), x >= 0, built from a LinearProgram."""

    def __init__(self, program: LinearProgram):
        csr = program.to_csr()
        self.program = program
        n_orig = csr.n_variables

        # Split free variables into positive and negative parts.
        self.var_names = list(csr.variables)
        self.pos_col = list(range(n_orig))
        self.neg_col = [-1] * n_orig
        extra_cols = []
        for idx, free in enumerate(csr.free):
            if free:
                self.neg_col[idx] = n_orig + len(extra_cols)
                extra_cols.append(idx)

        # Standard-form row order groups by sense (<=, then >=, then ==),
        # insertion order within each group.
        m = csr.n_constraints
        perm = np.array(
            [i for i, s in enumerate(csr.senses) if s is Sense.LE]
            + [i for i, s in enumerate(csr.senses) if s is Sense.GE]
            + [i for i, s in enumerate(csr.senses) if s is Sense.EQ],
            dtype=np.int64,
        )
        inv_perm = np.empty(m, dtype=np.int64)
        inv_perm[perm] = np.arange(m, dtype=np.int64)
        senses = [csr.senses[i].value for i in perm]
        self.row_names = [csr.names[i] for i in perm]
        b_vec = csr.rhs[perm].astype(float, copy=True)

        # Normalize to b >= 0, remembering the sign flips for dual recovery.
        self.row_sign = np.where(b_vec < 0, -1.0, 1.0)
        b_vec = b_vec * self.row_sign

        # Structural columns: originals, negative parts of free vars, slacks.
        n_slack = sum(1 for s in senses if s != "==")
        n_struct = n_orig + len(extra_cols) + n_slack

        self.slack_col_of_row = [-1] * m
        col = n_orig + len(extra_cols)
        slack_rows = []
        slack_cols = []
        slack_vals = []
        for i, sense in enumerate(senses):
            if sense == "==":
                continue
            sign = 1.0 if sense == "<=" else -1.0
            self.slack_col_of_row[i] = col
            slack_rows.append(i)
            slack_cols.append(col)
            slack_vals.append(sign * self.row_sign[i])
            col += 1

        # Original-variable entries, permuted and sign-normalized.
        entry_old_rows = np.repeat(
            np.arange(m, dtype=np.int64), np.diff(csr.a.indptr)
        )
        entry_rows = inv_perm[entry_old_rows]
        entry_cols = csr.a.indices
        entry_vals = csr.a.data * self.row_sign[entry_rows]

        # Negated copies of the free-variable columns.
        neg_map = np.full(n_orig, -1, dtype=np.int64)
        for k, orig_idx in enumerate(extra_cols):
            neg_map[orig_idx] = n_orig + k
        if extra_cols:
            neg_mask = neg_map[entry_cols] >= 0
            neg_rows = entry_rows[neg_mask]
            neg_cols = neg_map[entry_cols[neg_mask]]
            neg_vals = -entry_vals[neg_mask]
        else:
            neg_rows = np.zeros(0, dtype=np.int64)
            neg_cols = np.zeros(0, dtype=np.int64)
            neg_vals = np.zeros(0)

        self.a_csc: CSCMatrix = csc_from_triplets(
            (m, n_struct),
            np.concatenate(
                [entry_rows, neg_rows,
                 np.asarray(slack_rows, dtype=np.int64)]
            ),
            np.concatenate(
                [entry_cols, neg_cols,
                 np.asarray(slack_cols, dtype=np.int64)]
            ),
            np.concatenate([entry_vals, neg_vals, np.asarray(slack_vals)]),
        )

        c = np.zeros(n_struct)
        c[:n_orig] = csr.c
        for k, orig_idx in enumerate(extra_cols):
            c[n_orig + k] = -csr.c[orig_idx]

        self._a_dense: np.ndarray | None = None
        self.b = b_vec
        self.c = c
        self.m = m
        self.n_struct = n_struct
        self.senses = senses
        self.objective_constant = csr.objective_constant

    @property
    def a(self) -> np.ndarray:
        """The dense ``(m, n_struct)`` matrix, materialized on first use.

        The tableau and dense-revised solvers index this freely; the
        sparse solver never touches it.  Above 2000 rows the
        materialization is counted in
        :data:`repro.lp.sparse.DENSE_STATS` and surfaced as an event +
        metric (the dense-fallback footgun made visible).
        """
        if self._a_dense is None:
            self._a_dense = self.a_csc.to_dense(site="standard_form.a")
        return self._a_dense

    def recover_values(self, x: np.ndarray) -> dict[str, float]:
        values: dict[str, float] = {}
        for idx, name in enumerate(self.var_names):
            v = x[self.pos_col[idx]]
            if self.neg_col[idx] >= 0:
                v -= x[self.neg_col[idx]]
            values[name] = float(v)
        return values
