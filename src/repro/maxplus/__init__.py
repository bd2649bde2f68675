"""Max-plus fixpoint machinery for the latch propagation constraints.

With the clock variables held fixed, the paper's propagation constraints L2
(eq. 17) form a max-plus system

    D_i = max(floor_i, max_j (D_j + w_ji))

whose arc weights ``w_ji = Delta_DQj + Delta_ji + S_{pj pi}`` are constants.
This package computes fixpoints of such systems three ways (Jacobi -- the
paper's Algorithm MLP steps 3-5; Gauss-Seidel; event-driven worklist -- the
paper's suggested enhancement) and detects the positive-weight cycles that
signal an unclockable schedule.
"""

from typing import Any

from repro.maxplus.compiled import (
    CompiledMaxPlus,
    compile_system,
    least_fixpoint_arrays,
    slide_arrays,
)
from repro.maxplus.fixpoint import FixpointResult, least_fixpoint, slide
from repro.maxplus.system import MaxPlusSystem, WeightedArc

__all__ = [
    "MaxPlusSystem",
    "WeightedArc",
    "FixpointResult",
    "CompiledMaxPlus",
    "compile_system",
    "least_fixpoint",
    "least_fixpoint_arrays",
    "slide",
    "slide_arrays",
    "find_positive_cycle",
    "max_cycle_weight",
]


def __getattr__(name: str) -> Any:
    """Import :mod:`.cycles` only when a cycle query is asked for.

    Only a divergent schedule (or a test) looks for cycles.
    """
    if name in ("find_positive_cycle", "max_cycle_weight"):
        from repro.maxplus import cycles

        return getattr(cycles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
