"""Circuit-level timing model: synchronizers and combinational delay arcs.

A circuit, for the purposes of the SMO timing model, is a set of clocked
synchronizers (level-sensitive latches and, as in the paper's GaAs case
study, edge-triggered flip-flops) connected by feedback-free combinational
logic blocks.  Each block is abstracted to its input-latch-to-output-latch
propagation delays ``Delta_ji`` (Section III-B); the structure is captured
by :class:`TimingGraph`.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

# Static checkers see every export; at run time each binds on first access.
if TYPE_CHECKING:
    from repro.circuit.builder import CircuitBuilder as CircuitBuilder
    from repro.circuit.elements import EdgeKind as EdgeKind
    from repro.circuit.elements import FlipFlop as FlipFlop
    from repro.circuit.elements import Latch as Latch
    from repro.circuit.elements import Synchronizer as Synchronizer
    from repro.circuit.generate import (
        random_multiloop_circuit as random_multiloop_circuit,
    )
    from repro.circuit.generate import random_pipeline as random_pipeline
    from repro.circuit.graph import DelayArc as DelayArc
    from repro.circuit.graph import TimingGraph as TimingGraph
    from repro.circuit.lump import lump_parallel_latches as lump_parallel_latches
    from repro.circuit.validate import StructureReport as StructureReport
    from repro.circuit.validate import check_loop_phases as check_loop_phases
    from repro.circuit.validate import check_structure as check_structure

#: Every export and the module that defines it, imported on first access.
_EXPORTS = {
    "Latch": ".elements",
    "FlipFlop": ".elements",
    "Synchronizer": ".elements",
    "EdgeKind": ".elements",
    "DelayArc": ".graph",
    "TimingGraph": ".graph",
    "CircuitBuilder": ".builder",
    "check_structure": ".validate",
    "check_loop_phases": ".validate",
    "StructureReport": ".validate",
    "lump_parallel_latches": ".lump",
    "random_pipeline": ".generate",
    "random_multiloop_circuit": ".generate",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
