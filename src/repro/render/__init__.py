"""Text and SVG renderers for clock schedules and timing strips.

These reproduce the visual content of the paper's figures: clock waveforms
over two cycles (Figs. 3, 6, 11) and the per-latch "strip" diagrams of
Fig. 6 showing departure times, latch propagation (shaded) and waiting
gaps for early arrivals.
"""

from typing import Any

from repro.render.ascii_art import clock_diagram, schedule_table, strip_diagram

__all__ = ["clock_diagram", "strip_diagram", "schedule_table", "schedule_svg"]


def __getattr__(name: str) -> Any:
    """Import the SVG renderer only when ``schedule_svg`` is asked for.

    Every ``repro minimize`` prints through :mod:`.ascii_art`; only
    ``--svg`` needs :mod:`.svg`.
    """
    if name == "schedule_svg":
        from repro.render.svg import schedule_svg

        return schedule_svg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
