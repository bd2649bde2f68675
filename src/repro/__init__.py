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
import sys
from types import ModuleType
from typing import TYPE_CHECKING, Any, Callable, Mapping

# Static checkers see every export; at run time each binds on first access.
if TYPE_CHECKING:
    from repro.baselines import binary_search_minimize as binary_search_minimize
    from repro.baselines import borrowing_minimize as borrowing_minimize
    from repro.baselines import edge_triggered_minimize as edge_triggered_minimize
    from repro.baselines import nrip_minimize as nrip_minimize
    from repro.circuit import CircuitBuilder as CircuitBuilder
    from repro.circuit import DelayArc as DelayArc
    from repro.circuit import EdgeKind as EdgeKind
    from repro.circuit import FlipFlop as FlipFlop
    from repro.circuit import Latch as Latch
    from repro.circuit import TimingGraph as TimingGraph
    from repro.circuit import check_structure as check_structure
    from repro.circuit import lump_parallel_latches as lump_parallel_latches
    from repro.clocking import ClockPhase as ClockPhase
    from repro.clocking import ClockSchedule as ClockSchedule
    from repro.clocking import four_phase_clock as four_phase_clock
    from repro.clocking import symmetric_clock as symmetric_clock
    from repro.clocking import three_phase_clock as three_phase_clock
    from repro.clocking import two_phase_clock as two_phase_clock
    from repro.core import ConstraintOptions as ConstraintOptions
    from repro.core import MLPOptions as MLPOptions
    from repro.core import OptimalClockResult as OptimalClockResult
    from repro.core import TimingReport as TimingReport
    from repro.core import analyze as analyze
    from repro.core import build_program as build_program
    from repro.core import check_hold as check_hold
    from repro.core import critical_segments as critical_segments
    from repro.core import minimize_cycle_time as minimize_cycle_time
    from repro.core import signoff as signoff
    from repro.core import sweep_delay as sweep_delay
    from repro.engine import AnalyzeJob as AnalyzeJob
    from repro.engine import BaselineJob as BaselineJob
    from repro.engine import Engine as Engine
    from repro.engine import EngineReport as EngineReport
    from repro.engine import JobResult as JobResult
    from repro.engine import MinimizeJob as MinimizeJob
    from repro.engine import ResultCache as ResultCache
    from repro.engine import SweepJob as SweepJob
    from repro.engine import job_key as job_key
    from repro.engine import run_jobs as run_jobs
    from repro.errors import AnalysisError as AnalysisError
    from repro.errors import CircuitError as CircuitError
    from repro.errors import ClockError as ClockError
    from repro.errors import DivergentTimingError as DivergentTimingError
    from repro.errors import InfeasibleError as InfeasibleError
    from repro.errors import LPError as LPError
    from repro.errors import ParseError as ParseError
    from repro.errors import PhaseOverlapError as PhaseOverlapError
    from repro.errors import ReproError as ReproError
    from repro.errors import SolverError as SolverError
    from repro.errors import UnboundedError as UnboundedError
    from repro.export import to_cplex_lp as to_cplex_lp
    from repro.export import to_dot as to_dot
    from repro.export import to_mps as to_mps
    from repro.lang import parse_circuit as parse_circuit
    from repro.lang import parse_file as parse_file
    from repro.lang import write_circuit as write_circuit
    from repro.netlist import Library as Library
    from repro.netlist import Netlist as Netlist
    from repro.netlist import default_library as default_library
    from repro.netlist import extract_timing_graph as extract_timing_graph
    from repro.render import clock_diagram as clock_diagram
    from repro.render import schedule_svg as schedule_svg
    from repro.render import strip_diagram as strip_diagram
    from repro.sim import simulate as simulate


def _lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a lazily exporting package.

    ``exports`` maps every exported name to the module that defines it,
    written as for :func:`importlib.import_module` relative to ``package``
    (``".backends"``, or an absolute name for a module elsewhere)::

        __getattr__, __dir__ = _lazy_exports(__name__, {"solve": ".backends"})

    ``import pkg`` then loads no submodule.  ``pkg.solve`` (or ``from pkg
    import solve``, or ``from pkg import *``) imports ``pkg.backends``
    once and binds the name on the package, so later lookups never reach
    ``__getattr__`` again.  A CLI child therefore pays only for the layers
    its command runs.  Every package of ``repro`` exports this way.

    A ``__getattr__`` gives type checkers no types, so each package also
    imports its exports under ``if TYPE_CHECKING:`` as ``name as name``
    (an explicit re-export); ``tests/test_startup.py`` checks that block
    against the table.
    """
    module = sys.modules[package]
    namespace = vars(module)

    def __getattr__(name: str) -> Any:
        source = exports.get(name)
        if source is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    shadowed = frozenset(
        name for name, source in exports.items() if source == f".{name}"
    )
    if shadowed:
        # Loading a submodule binds it on its package.  Where an export
        # has the submodule's name (``repro.core.signoff`` is the function
        # of ``repro/core/signoff.py``), the export keeps the attribute,
        # as it did when the package imported it eagerly.
        class _Package(ModuleType):
            def __setattr__(self, name: str, value: Any) -> None:
                if name in shadowed and isinstance(value, ModuleType):
                    return
                super().__setattr__(name, value)

        module.__class__ = _Package
    return __getattr__, __dir__

#: Every top-level export, grouped by the submodule that defines it.  The
#: submodule is imported the first time one of its names is accessed, so
#: ``import repro.cli`` does not pay for the simulator, the netlist
#: substrate, the renderers or the batch engine unless a command uses them.
_EXPORTS: dict[str, tuple[str, ...]] = {
    ".baselines": (
        "binary_search_minimize",
        "borrowing_minimize",
        "edge_triggered_minimize",
        "nrip_minimize",
    ),
    ".circuit": (
        "CircuitBuilder",
        "DelayArc",
        "EdgeKind",
        "FlipFlop",
        "Latch",
        "TimingGraph",
        "check_structure",
        "lump_parallel_latches",
    ),
    ".clocking": (
        "ClockPhase",
        "ClockSchedule",
        "four_phase_clock",
        "symmetric_clock",
        "three_phase_clock",
        "two_phase_clock",
    ),
    ".core": (
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
    ".engine": (
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
    ".errors": (
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
    ".export": ("to_cplex_lp", "to_dot", "to_mps"),
    ".lang": ("parse_circuit", "parse_file", "write_circuit"),
    ".netlist": (
        "Library",
        "Netlist",
        "default_library",
        "extract_timing_graph",
    ),
    ".render": ("clock_diagram", "schedule_svg", "strip_diagram"),
    ".sim": ("simulate",),
}
__getattr__, __dir__ = _lazy_exports(
    __name__,
    {name: module for module, names in _EXPORTS.items() for name in names},
)

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
