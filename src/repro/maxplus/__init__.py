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

from typing import TYPE_CHECKING

from repro import _lazy_exports

# Static checkers see every export; at run time each binds on first access.
if TYPE_CHECKING:
    from repro.maxplus.compiled import CompiledMaxPlus as CompiledMaxPlus
    from repro.maxplus.compiled import compile_system as compile_system
    from repro.maxplus.compiled import least_fixpoint_arrays as least_fixpoint_arrays
    from repro.maxplus.compiled import slide_arrays as slide_arrays
    from repro.maxplus.compiled import find_positive_cycle as find_positive_cycle
    from repro.maxplus.fixpoint import FixpointResult as FixpointResult
    from repro.maxplus.fixpoint import least_fixpoint as least_fixpoint
    from repro.maxplus.fixpoint import slide as slide
    from repro.maxplus.system import MaxPlusSystem as MaxPlusSystem
    from repro.maxplus.system import WeightedArc as WeightedArc

#: Every export and the module that defines it, imported on first access.
_EXPORTS = {
    "MaxPlusSystem": ".system",
    "WeightedArc": ".system",
    "FixpointResult": ".fixpoint",
    "CompiledMaxPlus": ".compiled",
    "compile_system": ".compiled",
    "least_fixpoint": ".fixpoint",
    "least_fixpoint_arrays": ".compiled",
    "slide": ".fixpoint",
    "slide_arrays": ".compiled",
    "find_positive_cycle": ".compiled",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
