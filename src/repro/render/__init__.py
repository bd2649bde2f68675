"""Text and SVG renderers for clock schedules and timing strips.

These reproduce the visual content of the paper's figures: clock waveforms
over two cycles (Figs. 3, 6, 11) and the per-latch "strip" diagrams of
Fig. 6 showing departure times, latch propagation (shaded) and waiting
gaps for early arrivals.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

# Static checkers see every export; at run time each binds on first access.
if TYPE_CHECKING:
    from repro.render.ascii_art import clock_diagram as clock_diagram
    from repro.render.ascii_art import schedule_table as schedule_table
    from repro.render.ascii_art import strip_diagram as strip_diagram
    from repro.render.svg import schedule_svg as schedule_svg

#: Every export and the module that defines it, imported on first access.
_EXPORTS = {
    "clock_diagram": ".ascii_art",
    "strip_diagram": ".ascii_art",
    "schedule_table": ".ascii_art",
    "schedule_svg": ".svg",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
