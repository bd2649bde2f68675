"""Clock modeling for latch-controlled synchronous circuits.

This package implements the temporal clock model of Section III-A of the
paper: a k-phase clock is a set of periodic phases, each with a start time
``s_i`` and an active-interval width ``T_i`` inside a common cycle of period
``Tc``.  The model is purely temporal -- phases carry no logical relationship
to one another -- which is what lets a single formulation cover two-, three-
and four-phase disciplines alike (Fig. 3 of the paper).
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

# Static checkers see every export; at run time each binds on first access.
if TYPE_CHECKING:
    from repro.clocking.library import fig3_clocks as fig3_clocks
    from repro.clocking.library import four_phase_clock as four_phase_clock
    from repro.clocking.library import single_phase_clock as single_phase_clock
    from repro.clocking.library import symmetric_clock as symmetric_clock
    from repro.clocking.library import three_phase_clock as three_phase_clock
    from repro.clocking.library import two_phase_clock as two_phase_clock
    from repro.clocking.phase import ClockPhase as ClockPhase
    from repro.clocking.schedule import ClockSchedule as ClockSchedule
    from repro.clocking.schedule import ClockViolation as ClockViolation
    from repro.clocking.skew import SkewBound as SkewBound
    from repro.clocking.skew import apply_skew as apply_skew
    from repro.clocking.skew import worst_case_schedules as worst_case_schedules
    from repro.clocking.waveform import intervals_in_window as intervals_in_window
    from repro.clocking.waveform import overlap_duration as overlap_duration
    from repro.clocking.waveform import phase_edges as phase_edges
    from repro.clocking.waveform import phases_overlap as phases_overlap
    from repro.clocking.waveform import sample_phase as sample_phase
    from repro.clocking.waveform import sample_schedule as sample_schedule

#: Every export and the module that defines it, imported on first access.
_EXPORTS = {
    "ClockPhase": ".phase",
    "ClockSchedule": ".schedule",
    "ClockViolation": ".schedule",
    "symmetric_clock": ".library",
    "two_phase_clock": ".library",
    "three_phase_clock": ".library",
    "four_phase_clock": ".library",
    "single_phase_clock": ".library",
    "fig3_clocks": ".library",
    "sample_phase": ".waveform",
    "sample_schedule": ".waveform",
    "phase_edges": ".waveform",
    "intervals_in_window": ".waveform",
    "phases_overlap": ".waveform",
    "overlap_duration": ".waveform",
    "SkewBound": ".skew",
    "apply_skew": ".skew",
    "worst_case_schedules": ".skew",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
