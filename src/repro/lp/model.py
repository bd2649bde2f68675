"""The linear-program model: objective, constraints and variable bounds."""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from repro.errors import LPError
from repro.lp.expr import LinExpr, Number, as_expr
from repro.lp.sparse import CSRMatrix


class Sense(str, enum.Enum):
    """Direction of a linear constraint ``lhs (sense) rhs``."""

    LE = "<="
    GE = ">="
    EQ = "=="


@dataclass(frozen=True)
class Constraint:
    """A named linear constraint ``lhs (sense) rhs``."""

    name: str
    lhs: LinExpr
    sense: Sense
    rhs: float

    def normalized(self) -> "Constraint":
        """Move any constant from the lhs into the rhs."""
        if self.lhs.constant == 0.0:
            return self
        return Constraint(
            self.name,
            self.lhs - self.lhs.constant,
            self.sense,
            self.rhs - self.lhs.constant,
        )

    def violation(self, assignment: Mapping[str, float]) -> float:
        """How much the constraint is violated at a point (0 if satisfied)."""
        value = self.lhs.evaluate(assignment)
        if self.sense is Sense.LE:
            return max(0.0, value - self.rhs)
        if self.sense is Sense.GE:
            return max(0.0, self.rhs - value)
        return abs(value - self.rhs)

    def __str__(self) -> str:
        return f"{self.name}: {self.lhs} {self.sense.value} {self.rhs:g}"


class LinearProgram:
    """A minimization LP over named, nonnegative-by-default variables.

    Variables spring into existence when first referenced.  By default every
    variable is bounded below by 0 (all the paper's LP variables --
    ``Tc, s_i, T_i, D_i`` -- are nonnegative); :meth:`set_free` lifts that
    bound for the occasional unrestricted variable.
    """

    def __init__(self, name: str = "lp"):
        self.name = name
        self._objective = LinExpr()
        self._constraints: list[Constraint] = []
        self._constraint_names: set[str] = set()
        self._free: set[str] = set()
        self._declared: dict[str, None] = {}  # insertion-ordered variable set
        self._var_index: dict[str, int] = {}  # name -> declared position
        #: Constraint coefficients, accumulated as CSR triplets at add time
        #: (column = declared position of the variable, which never changes
        #: once assigned).  ``array`` keeps appends cheap; :meth:`to_csr`
        #: snapshots into numpy.  ``with_rhs`` clones share these buffers
        #: copy-on-write (``_csr_shared``) since rhs edits never touch them.
        self._csr_indptr: array[int] = array("q", [0])
        self._csr_cols: array[int] = array("q")
        self._csr_vals: array[float] = array("d")
        self._csr_shared = False
        #: Scratch space for *structural* fingerprints computed over this
        #: program (constraint names, senses and coefficients -- never rhs
        #: values).  :meth:`with_rhs` copies it into the clone, so rhs-only
        #: re-cost copies keep their cached fingerprints; any structural
        #: mutation clears it.
        self.structure_memo: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def minimize(self, objective: LinExpr | Number) -> None:
        self._objective = as_expr(objective)
        self._touch(self._objective)

    @property
    def objective(self) -> LinExpr:
        return self._objective

    def add(
        self,
        lhs: LinExpr | Number,
        sense: Sense | str,
        rhs: LinExpr | Number = 0.0,
        name: str | None = None,
    ) -> Constraint:
        """Add ``lhs (sense) rhs``; either side may be an expression.

        The constraint is normalized so all variables sit on the left and a
        bare constant on the right.
        """
        lhs_e, rhs_e = as_expr(lhs), as_expr(rhs)
        moved = lhs_e - rhs_e
        constraint = Constraint(
            name=name or f"c{len(self._constraints)}",
            lhs=moved - moved.constant,
            sense=Sense(sense),
            rhs=-moved.constant,
        )
        if constraint.name in self._constraint_names:
            raise LPError(f"duplicate constraint name {constraint.name!r}")
        self._constraint_names.add(constraint.name)
        self._constraints.append(constraint)
        self._append_csr_row(constraint.lhs.terms)
        self.structure_memo.clear()
        return constraint

    def add_row(
        self,
        name: str,
        terms: Mapping[str, float],
        sense: Sense | str,
        rhs: float,
    ) -> Constraint:
        """Add a pre-normalized row directly from a coefficient mapping.

        Fast path for bulk generators (the SMO constraint builder emits
        thousands of structurally known rows on large circuits): skips the
        :class:`LinExpr` operator arithmetic of :meth:`add` entirely.  The
        caller guarantees ``terms`` has no zero coefficients and that any
        constant has already been folded into ``rhs`` -- exactly the shape
        :meth:`add` would have produced.
        """
        constraint = Constraint(
            name=name,
            lhs=LinExpr(terms),
            sense=Sense(sense),
            rhs=float(rhs),
        )
        if name in self._constraint_names:
            raise LPError(f"duplicate constraint name {name!r}")
        self._constraint_names.add(name)
        self._constraints.append(constraint)
        self._append_csr_row(terms)
        self.structure_memo.clear()
        return constraint

    def add_le(self, lhs, rhs, name: str | None = None) -> Constraint:
        return self.add(lhs, Sense.LE, rhs, name=name)

    def add_ge(self, lhs, rhs, name: str | None = None) -> Constraint:
        return self.add(lhs, Sense.GE, rhs, name=name)

    def add_eq(self, lhs, rhs, name: str | None = None) -> Constraint:
        return self.add(lhs, Sense.EQ, rhs, name=name)

    def declare(self, name: str) -> None:
        """Register a variable even if no constraint mentions it yet."""
        if name not in self._var_index:
            self._var_index[name] = len(self._var_index)
            self._declared[name] = None

    def set_free(self, name: str) -> None:
        """Mark a variable as unrestricted in sign."""
        self.declare(name)
        self._free.add(name)
        self.structure_memo.clear()

    def _touch(self, expr: LinExpr) -> None:
        for v in expr.terms:
            self.declare(v)

    def _append_csr_row(self, terms: Mapping[str, float]) -> None:
        """Append one constraint row to the CSR triplet buffers."""
        if self._csr_shared:
            # Copy-on-write: a with_rhs sibling shares these buffers.
            self._csr_indptr = array("q", self._csr_indptr)
            self._csr_cols = array("q", self._csr_cols)
            self._csr_vals = array("d", self._csr_vals)
            self._csr_shared = False
        var_index = self._var_index
        for v, coeff in terms.items():
            idx = var_index.get(v)
            if idx is None:
                idx = len(var_index)
                var_index[v] = idx
                self._declared[v] = None
            self._csr_cols.append(idx)
            self._csr_vals.append(coeff)
        self._csr_indptr.append(len(self._csr_cols))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    @property
    def variables(self) -> tuple[str, ...]:
        """All variables, in order of first appearance."""
        return tuple(self._declared)

    @property
    def free_variables(self) -> frozenset[str]:
        return frozenset(self._free)

    def constraint(self, name: str) -> Constraint:
        for c in self._constraints:
            if c.name == name:
                return c
        raise LPError(f"no constraint named {name!r}")

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __str__(self) -> str:
        lines = [f"minimize {self._objective}", "subject to:"]
        lines.extend(f"  {c}" for c in self._constraints)
        if self._free:
            lines.append(f"free: {', '.join(sorted(self._free))}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Cheap structural copies
    # ------------------------------------------------------------------
    def with_rhs(self, updates: Mapping[str, float]) -> "LinearProgram":
        """A copy of this program with selected constraint right-hand sides
        replaced.

        Expressions are immutable and shared between the copy and the
        original, so this costs one :class:`Constraint` record per updated
        row plus list/dict copies -- no expression arithmetic and no graph
        walking.  This is the substrate of the parametric "re-cost" path:
        a delay change only moves constants, never coefficients, so the
        perturbed LP is the same structure with a handful of new rhs
        values (see :func:`repro.core.constraints.recost_arc_delay`).
        """
        unknown = set(updates) - self._constraint_names
        if unknown:
            raise LPError(f"with_rhs names unknown constraints: {sorted(unknown)}")
        clone = self._share()
        if updates:
            clone._constraints = [
                con
                if con.name not in updates
                else Constraint(
                    con.name, con.lhs, con.sense, float(updates[con.name])
                )
                for con in self._constraints
            ]
        return clone

    def with_row(
        self,
        name: str,
        terms: Mapping[str, float],
        sense: Sense | str,
        rhs: float,
        before: str | None = None,
    ) -> "LinearProgram":
        """A copy of this program with one more row (see :meth:`add_row`).

        The row goes right before the row named ``before``, or last when
        ``before`` is ``None``.  Every other row is shared with the
        original, as in :meth:`with_rhs`; the copy's structural memo starts
        empty because its structure differs.
        """
        clone = self._share()
        if before is None:
            clone.add_row(name, terms, sense, rhs)
            return clone
        if name in self._constraint_names:
            raise LPError(f"duplicate constraint name {name!r}")
        # Rows named as insertion points sit near the end (the FIX family).
        at = next(
            (
                i
                for i in range(len(self._constraints) - 1, -1, -1)
                if self._constraints[i].name == before
            ),
            None,
        )
        if at is None:
            raise LPError(f"with_row names unknown constraint {before!r}")
        clone._constraints.insert(
            at, Constraint(name, LinExpr(terms), Sense(sense), float(rhs))
        )
        clone._constraint_names.add(name)
        cols = []
        for v in terms:
            clone.declare(v)
            cols.append(clone._var_index[v])
        indptr, first, k = self._csr_indptr, self._csr_indptr[at], len(cols)
        clone._csr_indptr = indptr[: at + 1] + array(
            "q", [x + k for x in indptr[at:]]
        )
        clone._csr_cols = (
            self._csr_cols[:first] + array("q", cols) + self._csr_cols[first:]
        )
        clone._csr_vals = (
            self._csr_vals[:first]
            + array("d", terms.values())
            + self._csr_vals[first:]
        )
        clone._csr_shared = False
        clone.structure_memo = {}
        return clone

    def _share(self) -> "LinearProgram":
        """A copy sharing rows, objective and CSR buffers copy-on-write."""
        clone = LinearProgram(name=self.name)
        clone._objective = self._objective
        clone._constraints = list(self._constraints)
        clone._constraint_names = set(self._constraint_names)
        clone._free = set(self._free)
        clone._declared = dict(self._declared)
        clone._var_index = dict(self._var_index)
        # Coefficients are untouched by rhs edits: share the CSR buffers and
        # let the next structural append on either side copy them first.
        clone._csr_indptr = self._csr_indptr
        clone._csr_cols = self._csr_cols
        clone._csr_vals = self._csr_vals
        clone._csr_shared = self._csr_shared = True
        clone.structure_memo = dict(self.structure_memo)
        return clone

    # ------------------------------------------------------------------
    # Matrix form
    # ------------------------------------------------------------------
    def to_csr(self) -> "LPCSRArrays":
        """Sparse (CSR) matrix form, rows in insertion order.

        The structural arrays (indptr/indices/data, names, senses) are
        snapshotted from the append buffers and cached in
        :attr:`structure_memo` -- so repeated calls during a solve, and
        every :meth:`with_rhs` sibling, share one set of numpy arrays.
        The objective vector and rhs are rebuilt per call: they are not
        structure and may change without clearing the memo.
        """
        variables = list(self._declared)
        n = len(variables)
        m = len(self._constraints)
        nnz = len(self._csr_cols)
        cached = self.structure_memo.get("csr_structure")
        if (
            isinstance(cached, _CSRStructure)
            and cached.a.shape == (m, n)
            and cached.a.nnz == nnz
        ):
            structure = cached
        else:
            structure = _CSRStructure(
                a=CSRMatrix(
                    shape=(m, n),
                    indptr=np.frombuffer(
                        bytes(self._csr_indptr), dtype=np.int64
                    ),
                    indices=np.frombuffer(
                        bytes(self._csr_cols), dtype=np.int64
                    ),
                    data=np.frombuffer(
                        bytes(self._csr_vals), dtype=np.float64
                    ),
                ),
                names=[c.name for c in self._constraints],
                senses=[c.sense for c in self._constraints],
            )
            self.structure_memo["csr_structure"] = structure

        c = np.zeros(n)
        for v, coeff in self._objective.terms.items():
            c[self._var_index[v]] = coeff
        return LPCSRArrays(
            variables=variables,
            c=c,
            objective_constant=self._objective.constant,
            a=structure.a,
            senses=structure.senses,
            rhs=np.array([con.rhs for con in self._constraints]),
            names=structure.names,
            free=[v in self._free for v in variables],
        )

    def to_arrays(self) -> "LPArrays":
        """Dense matrix form, keeping <=, >= and == rows separate.

        This is the legacy tableau-solver view; it materializes the full
        ``(m, n)`` coefficient matrix from the CSR storage, which above
        2000 rows is counted and reported (see :mod:`repro.lp.sparse`).
        """
        csr = self.to_csr()
        n = len(csr.variables)
        dense = csr.a.to_dense(site="model.to_arrays")

        picks: dict[Sense, list[int]] = {
            Sense.LE: [],
            Sense.GE: [],
            Sense.EQ: [],
        }
        for i, sense in enumerate(csr.senses):
            picks[sense].append(i)

        def block(sense: Sense) -> tuple[np.ndarray, np.ndarray]:
            idx = picks[sense]
            if idx:
                return dense[idx], csr.rhs[idx]
            return np.zeros((0, n)), np.zeros(0)

        a_le, b_le = block(Sense.LE)
        a_ge, b_ge = block(Sense.GE)
        a_eq, b_eq = block(Sense.EQ)
        return LPArrays(
            variables=csr.variables,
            c=csr.c,
            objective_constant=csr.objective_constant,
            a_le=a_le,
            b_le=b_le,
            names_le=[csr.names[i] for i in picks[Sense.LE]],
            a_ge=a_ge,
            b_ge=b_ge,
            names_ge=[csr.names[i] for i in picks[Sense.GE]],
            a_eq=a_eq,
            b_eq=b_eq,
            names_eq=[csr.names[i] for i in picks[Sense.EQ]],
            free=csr.free,
        )

    def check_topological(self) -> bool:
        """True if every constraint coefficient is 0 or +/-1.

        Section VI observes that the SMO constraint matrix is exclusively
        topological; the core constraint generator asserts this property.
        """
        for con in self._constraints:
            for coeff in con.lhs.terms.values():
                if coeff not in (1.0, -1.0):
                    return False
        return True


@dataclass
class LPArrays:
    """Dense matrix view of a :class:`LinearProgram`."""

    variables: list[str]
    c: np.ndarray
    objective_constant: float
    a_le: np.ndarray
    b_le: np.ndarray
    names_le: list[str]
    a_ge: np.ndarray
    b_ge: np.ndarray
    names_ge: list[str]
    a_eq: np.ndarray
    b_eq: np.ndarray
    names_eq: list[str]
    free: list[bool]

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.names_le) + len(self.names_ge) + len(self.names_eq)


@dataclass(frozen=True)
class _CSRStructure:
    """The structural (rhs-independent) part of :class:`LPCSRArrays`."""

    a: CSRMatrix
    names: list[str]
    senses: list[Sense]


@dataclass
class LPCSRArrays:
    """Sparse (CSR) matrix view of a :class:`LinearProgram`.

    Rows are in constraint insertion order (not grouped by sense); the
    per-row ``senses`` list carries the direction.  Peak memory is
    O(nnz) -- for the paper's exclusively-topological matrices that is
    a few entries per row regardless of circuit size.
    """

    variables: list[str]
    c: np.ndarray
    objective_constant: float
    a: CSRMatrix
    senses: list[Sense]
    rhs: np.ndarray
    names: list[str]
    free: list[bool]

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.names)
