"""Parametric delay sweeps: the piecewise-linear Tc(Delta) curves of Fig. 7.

Linear-programming theory guarantees that the optimal cycle time is a
piecewise-linear convex function of any single delay parameter.  The grid
sweep evaluates Tc over a grid and recovers the linear segments; the exact
sweep finds every segment from the Tc solves' duals, which give the slope
of the curve at each evaluated point -- reproducing, for example 1, the
paper's three segments (flat at 80 ns, slope 1/2, slope 1) with
breakpoints at Delta_41 = 20 and 100 ns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from repro.circuit.graph import TimingGraph
from repro.core.constraints import ConstraintOptions, build_program, recost_arc_delay
from repro.core.mlp import MLPOptions, minimize_cycle_time
from repro.errors import ReproError


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated point of a sweep."""

    parameter: float
    period: float


@dataclass(frozen=True)
class Segment:
    """A maximal linear piece of the swept curve."""

    start: float
    end: float
    slope: float
    intercept: float  # value extrapolated to parameter = 0

    def value(self, x: float) -> float:
        return self.intercept + self.slope * x


@dataclass
class SweepResult:
    """Points and recovered piecewise-linear structure of a delay sweep."""

    points: list[SweepPoint]
    segments: list[Segment] = field(default_factory=list)

    @property
    def parameters(self) -> list[float]:
        return [p.parameter for p in self.points]

    @property
    def periods(self) -> list[float]:
        return [p.period for p in self.points]

    @property
    def breakpoints(self) -> list[float]:
        """Parameter values where the slope changes."""
        return [seg.start for seg in self.segments[1:]]

    @property
    def slopes(self) -> list[float]:
        return [seg.slope for seg in self.segments]

    def period_at(self, x: float) -> float:
        """Interpolate the curve at ``x`` using the recovered segments."""
        if not self.segments:
            raise ReproError("sweep has no recovered segments")
        for seg in self.segments:
            if seg.start - 1e-12 <= x <= seg.end + 1e-12:
                return seg.value(x)
        raise ReproError(f"{x} outside swept range")


def _fit_segments(points: Sequence[SweepPoint], slope_tol: float) -> list[Segment]:
    if len(points) < 2:
        return []
    segments: list[Segment] = []
    slopes = []
    for a, b in zip(points, points[1:]):
        dx = b.parameter - a.parameter
        if dx <= 0:
            raise ReproError("sweep grid must be strictly increasing")
        slopes.append((b.period - a.period) / dx)
    start_idx = 0
    for i in range(1, len(slopes) + 1):
        boundary = i == len(slopes) or abs(slopes[i] - slopes[start_idx]) > slope_tol
        if boundary:
            a = points[start_idx]
            b = points[i]
            slope = (b.period - a.period) / (b.parameter - a.parameter)
            segments.append(
                Segment(
                    start=a.parameter,
                    end=b.parameter,
                    slope=slope,
                    intercept=a.period - slope * a.parameter,
                )
            )
            start_idx = i
    return segments


def sweep(
    evaluate: Callable[[float], float],
    grid: Sequence[float],
    slope_tol: float = 1e-6,
) -> SweepResult:
    """Evaluate ``evaluate`` over ``grid`` and recover linear segments."""
    if len(grid) < 2:
        raise ReproError("sweep needs at least two grid points")
    pts = [SweepPoint(float(x), float(evaluate(float(x)))) for x in grid]
    return SweepResult(points=pts, segments=_fit_segments(pts, slope_tol))


def sweep_delay(
    graph: TimingGraph,
    src: str,
    dst: str,
    grid: Sequence[float],
    options: ConstraintOptions | None = None,
    mlp: MLPOptions | None = None,
    slope_tol: float = 1e-6,
    jobs: int = 1,
    engine=None,
) -> SweepResult:
    """Optimal Tc as a function of one combinational arc delay.

    This is exactly the experiment of the paper's Fig. 7 (sweeping
    Delta_41 of example 1).

    Evaluation goes through :class:`repro.engine.runner.Engine`: grid
    points are deduplicated by content hash and evaluated adaptively
    (convexity lets proven-linear spans be interpolated instead of
    solved), so the sweep performs fewer LP solves than it has grid
    points.  ``jobs`` sets the worker count for a throwaway engine;
    passing ``engine`` instead shares its cache and metrics across
    sweeps.  The result is independent of the worker count -- a
    ``jobs=4`` run returns bit-identical segments to a serial run.
    """
    # Imported here because repro.engine.runner imports this module.
    from repro.engine.jobspec import SweepJob
    from repro.engine.runner import Engine

    if engine is None:
        engine = Engine(jobs=jobs)
    job = SweepJob(
        graph=graph,
        src=src,
        dst=dst,
        grid=tuple(float(x) for x in grid),
        options=options,
        mlp=mlp,
        slope_tol=slope_tol,
        label=f"sweep {src}->{dst}",
    )
    return engine.map_sweep(job)


#: Relative tolerance of every comparison :func:`exact_sweep` makes.
_REL_TOL = 1e-9


class _Support(NamedTuple):
    """The line ``value + slope * (t - x)`` supporting the curve at ``x``."""

    x: float
    value: float
    slope: float

    def at(self, t: float) -> float:
        return self.value + self.slope * (t - self.x)

    @property
    def intercept(self) -> float:
        return self.value - self.slope * self.x


def _support(
    evaluate: Callable[[float], tuple[float, float]], x: float
) -> _Support:
    value, slope = evaluate(x)
    return _Support(float(x), float(value), float(slope))


def _sandwich(
    evaluate: Callable[[float], tuple[float, float]],
    left: _Support,
    right: _Support,
) -> list[tuple[float, _Support]]:
    """The kinks of the curve between ``left.x`` and ``right.x``.

    Returns ``(x, line)`` pairs in order: from ``x`` on, the curve follows
    ``line``.  The two supporting lines sandwich the convex curve between
    them and its chord; where they meet, either the curve lies on both
    (a kink, found without evaluating when it sits at an end of the
    interval) or above both, and that point's own line splits the
    interval.  The curve below a supporting line means the oracle's
    slope is no subgradient.
    """
    a, b = left.x, right.x
    tol = _REL_TOL * max(1.0, abs(left.value), abs(right.value))
    # h = right - left is linear, <= 0 at a and >= 0 at b for true supports.
    h_a, h_b = right.at(a) - left.value, right.value - left.at(b)
    if h_a > tol or h_b < -tol:
        raise ReproError(
            f"slopes {left.slope!r} at {a!r} and {right.slope!r} at {b!r} "
            "do not support a convex curve"
        )
    if h_a >= -tol:
        # The right line passes through the left point: one line if they
        # coincide, else a kink at a.
        return [] if h_b <= tol else [(a, right)]
    if h_b <= tol:
        return [(b, right)]
    x = a - h_a * (b - a) / (h_b - h_a)
    meet = left.at(x)
    mid = _support(evaluate, x)
    if abs(mid.value - meet) <= tol:
        return [(x, right)]
    if mid.value < meet:
        raise ReproError(
            f"Tc({x!r}) = {mid.value!r} lies below the supporting lines "
            f"at {a!r} and {b!r}: the oracle's slope is no subgradient"
        )
    return _sandwich(evaluate, left, mid) + _sandwich(evaluate, mid, right)


def exact_sweep(
    evaluate: Callable[[float], tuple[float, float]],
    lo: float,
    hi: float,
) -> SweepResult:
    """Recover the exact piecewise-linear structure of a convex curve.

    ``evaluate(x)`` returns the curve's value and a slope at ``x`` (any
    subgradient where ``x`` is a kink).  The sandwich method brackets the
    curve between the lines at both ends of an interval, evaluates where
    they meet and recurses only where the curve lies above them, so a
    curve with ``s`` segments costs at most ``2s + 1`` evaluations.
    Breakpoints are intersections of the oracle's lines and slopes are the
    oracle's own values -- the parametric-programming capability Section
    VI anticipates.  A kink at ``lo`` or ``hi`` yields no zero-width
    segment, and a slope that does not support the curve raises
    :class:`~repro.errors.ReproError`.
    """
    if hi <= lo:
        raise ReproError(f"need hi > lo, got lo={lo}, hi={hi}")
    first, last = _support(evaluate, lo), _support(evaluate, hi)
    pieces = [(float(lo), first)] + _sandwich(evaluate, first, last)
    ends = [x for x, _ in pieces[1:]] + [float(hi)]
    width_tol = _REL_TOL * max(1.0, abs(lo), abs(hi))
    kept = [
        piece for piece, end in zip(pieces, ends) if end - piece[0] > width_tol
    ]
    starts = [float(lo)] + [x for x, _ in kept[1:]]
    segments = [
        Segment(start=a, end=b, slope=line.slope, intercept=line.intercept)
        for a, b, (_, line) in zip(starts, starts[1:] + [float(hi)], kept)
    ]
    points = [SweepPoint(lo, first.value), SweepPoint(hi, last.value)]
    return SweepResult(points=points, segments=segments)


def exact_sweep_delay(
    graph: TimingGraph,
    src: str,
    dst: str,
    lo: float,
    hi: float,
    options: ConstraintOptions | None = None,
    mlp: MLPOptions | None = None,
) -> SweepResult:
    """Exact piecewise-linear Tc(Delta_{src,dst}) over [lo, hi].

    Returns segments whose breakpoints are located by line intersection
    rather than grid resolution and whose slopes are the Tc solves' own
    sensitivities; for example 1 this recovers the Fig. 7 breakpoints at
    20 and 100 ns in five Tc solves.
    """
    evaluate = delay_evaluator(graph, src, dst, options=options, mlp=mlp)
    return exact_sweep(evaluate, lo, hi)


def delay_evaluator(
    graph: TimingGraph,
    src: str,
    dst: str,
    options: ConstraintOptions | None = None,
    mlp: MLPOptions | None = None,
) -> Callable[[float], tuple[float, float]]:
    """An ``x -> (optimal Tc, dTc/dDelta)`` oracle for one arc delay.

    The constraint system is built once and re-costed per value
    (:func:`recost_arc_delay`).  The default options skip the verify and
    compact passes: one Tc solve per value, on the default cycle-engine
    route.  The slope is ``sum_r rhs_delay_sign[r] * dual[r]`` over the
    arc's rows -- d rhs / dDelta times the Tc solve's dTc / d rhs.  Any
    optimal dual is a subgradient of the LP value function, so at a kink
    the slope lies between the two that meet there.
    """
    mlp = mlp or MLPOptions(verify=False, compact=False)
    smo = build_program(graph, options or ConstraintOptions())
    rows = [
        name for name, pair in smo.arc_of_constraint.items() if pair == (src, dst)
    ]

    def evaluate(value: float) -> tuple[float, float]:
        recosted = recost_arc_delay(smo, src, dst, float(value))
        result = minimize_cycle_time(recosted.graph, options, mlp, smo=recosted)
        duals = result.lp_tc_result.duals
        slope = sum(smo.rhs_delay_sign[name] * duals.get(name, 0.0) for name in rows)
        return result.period, slope

    return evaluate
