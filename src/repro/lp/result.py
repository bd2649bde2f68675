"""Solver-independent result object for linear programs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import InfeasibleError, UnboundedError
from repro.lp.model import LinearProgram


class LPStatus(str, enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    """Outcome of solving a :class:`repro.lp.model.LinearProgram`.

    ``values`` maps every model variable to its optimal value; ``duals``
    maps constraint names to shadow prices (the derivative of the optimal
    objective with respect to that constraint's right-hand side); ``slacks``
    maps constraint names to ``|lhs - rhs|`` distance from binding.

    ``iterations`` counts solver iterations -- simplex pivots for the dense
    simplex backend (also exposed as :attr:`pivots`), ``res.nit`` for
    scipy -- and ``solve_seconds`` is the wall-clock time spent inside the
    backend, filled by :func:`repro.lp.backends.solve` when the backend
    itself does not report it.

    ``extra`` carries backend-specific artifacts; the revised simplex puts
    its refactorization count under ``extra["refactorizations"]``.
    """

    status: LPStatus
    objective: float = float("nan")
    values: dict[str, float] = field(default_factory=dict)
    duals: dict[str, float] = field(default_factory=dict)
    slacks: dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    backend: str = ""
    solve_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is LPStatus.OPTIMAL

    @property
    def pivots(self) -> int:
        """Simplex pivot count (alias of ``iterations`` for LP backends)."""
        return self.iterations

    def raise_for_status(self) -> "LPResult":
        """Raise a typed error unless the status is OPTIMAL."""
        if self.status is LPStatus.INFEASIBLE:
            raise InfeasibleError(f"LP infeasible ({self.backend})")
        if self.status is LPStatus.UNBOUNDED:
            raise UnboundedError(f"LP unbounded ({self.backend})")
        return self

    def value(self, name: str) -> float:
        return self.values[name]

    def binding_constraints(self, tol: float = 1e-7) -> list[str]:
        """Names of constraints with (near-)zero slack."""
        return [name for name, s in self.slacks.items() if abs(s) <= tol]


def attach_slacks(result: LPResult, program: LinearProgram) -> LPResult:
    """Fill in per-constraint slacks by evaluating at the solution point."""
    if result.status is not LPStatus.OPTIMAL:
        return result
    point: Mapping[str, float] = result.values
    slacks: dict[str, float] = {}
    for con in program.constraints:
        value = con.lhs.evaluate(point)
        slacks[con.name] = abs(con.rhs - value)
    result.slacks = slacks
    return result
