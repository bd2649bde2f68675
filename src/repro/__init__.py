"""repro: the SMO latch-timing model and LP-optimal clock scheduling.

A from-scratch reproduction of K. A. Sakallah, T. N. Mudge and
O. A. Olukotun, *Analysis and Design of Latch-Controlled Synchronous
Digital Circuits* (DAC 1990): the complete timing-constraint formulation
for level-sensitive latch circuits under arbitrary multiphase clocks
(C1-C4, L1-L3), the proof-backed LP relaxation (Theorem 1), and Algorithm
MLP for computing the optimal cycle time -- plus the analysis problem,
baselines (NRIP, edge-triggered, borrowing, binary search), a gate-level
delay-extraction substrate, a circuit-description language, renderers and
a cycle-accurate simulator.

The top-level exports (``__all__``) are resolved on first access:
``import repro`` loads no submodule, and ``from repro import
minimize_cycle_time`` imports only :mod:`repro.core` and what it needs.

Quickstart::

    from repro import CircuitBuilder, minimize_cycle_time

    b = CircuitBuilder(phases=["phi1", "phi2"])
    b.latch("L1", phase="phi1", setup=10, delay=10)
    b.latch("L2", phase="phi2", setup=10, delay=10)
    b.path("L1", "L2", delay=20)
    b.path("L2", "L1", delay=60)
    result = minimize_cycle_time(b.build())
    print(result.period, result.schedule)
"""

import importlib
from typing import Any

#: Every top-level export, grouped by the submodule that defines it.  The
#: submodule is imported the first time one of its names is accessed, so
#: ``import repro.cli`` does not pay for the simulator, the netlist
#: substrate, the renderers or the batch engine unless a command uses them.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "repro.baselines": (
        "binary_search_minimize",
        "borrowing_minimize",
        "edge_triggered_minimize",
        "nrip_minimize",
    ),
    "repro.circuit": (
        "CircuitBuilder",
        "DelayArc",
        "EdgeKind",
        "FlipFlop",
        "Latch",
        "TimingGraph",
        "check_structure",
        "lump_parallel_latches",
    ),
    "repro.clocking": (
        "ClockPhase",
        "ClockSchedule",
        "four_phase_clock",
        "symmetric_clock",
        "three_phase_clock",
        "two_phase_clock",
    ),
    "repro.core": (
        "ConstraintOptions",
        "MLPOptions",
        "OptimalClockResult",
        "TimingReport",
        "analyze",
        "build_program",
        "check_hold",
        "critical_segments",
        "minimize_cycle_time",
        "signoff",
        "sweep_delay",
    ),
    "repro.engine": (
        "AnalyzeJob",
        "BaselineJob",
        "Engine",
        "EngineReport",
        "JobResult",
        "MinimizeJob",
        "ResultCache",
        "SweepJob",
        "job_key",
        "run_jobs",
    ),
    "repro.errors": (
        "AnalysisError",
        "CircuitError",
        "ClockError",
        "DivergentTimingError",
        "InfeasibleError",
        "LPError",
        "ParseError",
        "PhaseOverlapError",
        "ReproError",
        "SolverError",
        "UnboundedError",
    ),
    "repro.export": ("to_cplex_lp", "to_dot", "to_mps"),
    "repro.lang": ("parse_circuit", "parse_file", "write_circuit"),
    "repro.netlist": (
        "Library",
        "Netlist",
        "default_library",
        "extract_timing_graph",
    ),
    "repro.render": ("clock_diagram", "schedule_svg", "strip_diagram"),
    "repro.sim": ("simulate",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str) -> Any:
    """Resolve a top-level export on first access (PEP 562)."""
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCE))


__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ClockError",
    "CircuitError",
    "PhaseOverlapError",
    "LPError",
    "InfeasibleError",
    "UnboundedError",
    "SolverError",
    "AnalysisError",
    "DivergentTimingError",
    "ParseError",
    # clocking
    "ClockPhase",
    "ClockSchedule",
    "symmetric_clock",
    "two_phase_clock",
    "three_phase_clock",
    "four_phase_clock",
    # circuit
    "Latch",
    "FlipFlop",
    "EdgeKind",
    "DelayArc",
    "TimingGraph",
    "CircuitBuilder",
    "check_structure",
    "lump_parallel_latches",
    # core
    "ConstraintOptions",
    "MLPOptions",
    "OptimalClockResult",
    "TimingReport",
    "analyze",
    "build_program",
    "minimize_cycle_time",
    "signoff",
    "critical_segments",
    "sweep_delay",
    "check_hold",
    # baselines
    "nrip_minimize",
    "edge_triggered_minimize",
    "borrowing_minimize",
    "binary_search_minimize",
    # engine
    "AnalyzeJob",
    "BaselineJob",
    "Engine",
    "EngineReport",
    "JobResult",
    "MinimizeJob",
    "ResultCache",
    "SweepJob",
    "job_key",
    "run_jobs",
    # language
    "parse_circuit",
    "parse_file",
    "write_circuit",
    # netlist
    "Netlist",
    "Library",
    "default_library",
    "extract_timing_graph",
    # render / sim / export
    "clock_diagram",
    "strip_diagram",
    "schedule_svg",
    "simulate",
    "to_cplex_lp",
    "to_mps",
    "to_dot",
    "__version__",
]
