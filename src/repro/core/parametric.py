"""Parametric delay sweeps: the piecewise-linear Tc(Delta) curves of Fig. 7.

Linear-programming theory guarantees that the optimal cycle time is a
piecewise-linear convex function of any single delay parameter.  The sweep
utilities evaluate Tc over a grid, recover the linear segments and their
breakpoints, and optionally refine breakpoint locations by bisection --
reproducing, for example 1, the paper's three segments (flat at 80 ns,
slope 1/2, slope 1) with breakpoints at Delta_41 = 20 and 100 ns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.circuit.graph import TimingGraph
from repro.core.constraints import ConstraintOptions, build_program, recost_arc_delay
from repro.core.mlp import MLPOptions, minimize_cycle_time
from repro.errors import ReproError
from repro.lp.backends import supports_warm_start
from repro.lp.basis import Basis


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated point of a sweep."""

    parameter: float
    period: float


class BasisChain:
    """Nearest-neighbor store of optimal bases along a one-parameter sweep.

    Optimal bases vary slowly along a delay sweep, but a basis from a
    *distant* point is often primal-infeasible at the new right-hand side
    (the guard then falls back to a cold solve).  Keeping every solved
    point's basis and seeding each new solve from the geometrically
    nearest one raises the warm-start hit rate substantially over a
    "last solved wins" chain -- bisection in particular revisits
    midpoints far from the most recent solve.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[float, Basis]] = []
        #: pivot count of the chain's first cold solve -- the anchor the
        #: engine uses to estimate ``pivots_saved`` on warm hits.
        self.cold_hint: int = 0

    def get(self, x: float) -> Basis | None:
        """The stored basis nearest to parameter value ``x`` (None if empty)."""
        if not self._entries:
            return None
        return min(self._entries, key=lambda entry: abs(entry[0] - x))[1]

    def put(self, x: float, basis: Basis | None) -> None:
        if basis is None:
            return
        self._entries.append((float(x), basis))


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


def _reconstruct_pieces(
    evaluate: Callable[[float], float],
    lo: float,
    f_lo: float,
    hi: float,
    f_hi: float,
    value_tol: float,
    min_width: float,
) -> list[tuple[float, float, float, float]]:
    """Recursively split [lo, hi] until each piece is linear (chord test)."""
    mid = 0.5 * (lo + hi)
    if hi - lo <= min_width:
        return [(lo, f_lo, hi, f_hi)]
    f_mid = evaluate(mid)
    chord = 0.5 * (f_lo + f_hi)
    if abs(f_mid - chord) <= value_tol:
        return [(lo, f_lo, hi, f_hi)]
    left = _reconstruct_pieces(evaluate, lo, f_lo, mid, f_mid, value_tol, min_width)
    right = _reconstruct_pieces(evaluate, mid, f_mid, hi, f_hi, value_tol, min_width)
    return left + right


@dataclass
class _Line:
    """A fitted line of :func:`exact_sweep` and the sampled span it covers."""

    slope: float
    intercept: float
    start: float
    f_start: float
    end: float
    f_end: float

    def value(self, x: float) -> float:
        return self.intercept + self.slope * x

    def meet(self, other: "_Line") -> float:
        """Where this line and ``other`` intersect."""
        return (self.intercept - other.intercept) / (other.slope - self.slope)


def _drop_chords(
    evaluate: Callable[[float], float],
    lines: list[_Line],
    value_tol: float,
) -> list[_Line]:
    """Remove lines that are chords across a kink of the convex curve.

    A piece that straddles a kink yet passed the chord test carries a
    blended slope.  Its sampled ends then lie on its neighbours' lines,
    which meet inside its span, and the curve at that intersection lies
    on both of them, below the chord (a chord lies above a convex
    curve): the neighbours alone describe the curve there, so the line
    is dropped.  A true segment whose sampled ends happen to sit on both
    kinks passes the first test but not the second, which costs one
    evaluation.
    """
    kept: list[_Line] = []
    for i, line in enumerate(lines):
        if kept and i + 1 < len(lines):
            left, right = kept[-1], lines[i + 1]
            if (
                left.slope < right.slope
                and abs(left.value(line.start) - line.f_start) <= value_tol
                and abs(right.value(line.end) - line.f_end) <= value_tol
            ):
                kink = left.meet(right)
                if (
                    line.start <= kink <= line.end
                    and abs(evaluate(kink) - left.value(kink)) <= value_tol
                ):
                    continue
        kept.append(line)
    return kept


def exact_sweep(
    evaluate: Callable[[float], float],
    lo: float,
    hi: float,
    value_tol: float = 1e-7,
    slope_tol: float = 1e-6,
    min_width: float = 1e-6,
) -> SweepResult:
    """Recover the exact piecewise-linear structure of a convex curve.

    Unlike :func:`sweep`, which samples a fixed grid, this adaptively
    bisects (convexity makes the chord test exact up to tolerance) and then
    intersects neighboring segment lines, so breakpoint locations come out
    to solver precision with a number of evaluations proportional to the
    number of segments -- the parametric-programming capability Section VI
    anticipates.
    """
    if hi <= lo:
        raise ReproError(f"need hi > lo, got lo={lo}, hi={hi}")
    f_lo, f_hi = evaluate(lo), evaluate(hi)
    pieces = _reconstruct_pieces(evaluate, lo, f_lo, hi, f_hi, value_tol, min_width)

    # Pieces that bottomed out at the recursion resolution straddle a kink
    # and carry a blended slope; drop them (their extent is below the
    # resolution anyway) and recover the kink by intersecting neighbors.
    threshold = max(8.0 * min_width, (hi - lo) * 1e-9)
    wide = [p for p in pieces if (p[2] - p[0]) > threshold]
    if not wide:  # pathological: keep everything rather than nothing
        wide = pieces

    # Merge pieces with equal slopes, then intersect neighbors for exact
    # breakpoints.
    merged: list[_Line] = []
    for a, fa, b, fb in wide:
        slope = (fb - fa) / (b - a)
        if merged and abs(slope - merged[-1].slope) <= slope_tol:
            merged[-1].end, merged[-1].f_end = b, fb
            continue
        merged.append(_Line(slope, fa - slope * a, a, fa, b, fb))
    merged = _drop_chords(evaluate, merged, value_tol)

    segments: list[Segment] = []
    boundaries = [lo]
    for left, right in zip(merged, merged[1:]):
        boundaries.append(left.meet(right))
    boundaries.append(hi)
    for line, a, b in zip(merged, boundaries, boundaries[1:]):
        segments.append(
            Segment(start=a, end=b, slope=line.slope, intercept=line.intercept)
        )

    points = [SweepPoint(lo, f_lo), SweepPoint(hi, f_hi)]
    return SweepResult(points=points, segments=segments)


def exact_sweep_delay(
    graph: TimingGraph,
    src: str,
    dst: str,
    lo: float,
    hi: float,
    options: ConstraintOptions | None = None,
    mlp: MLPOptions | None = None,
    value_tol: float = 1e-7,
    slope_tol: float = 1e-6,
    engine=None,
) -> SweepResult:
    """Exact piecewise-linear Tc(Delta_{src,dst}) over [lo, hi].

    Returns segments whose breakpoints are located by line intersection
    rather than grid resolution; for example 1 this recovers the Fig. 7
    breakpoints at 20 and 100 ns to solver precision.

    Every evaluation is routed through an engine cache, so the duplicate
    ``evaluate(x)`` calls the recursive chord test makes at shared piece
    endpoints are served from the cache instead of re-solved.
    """
    from repro.engine.runner import Engine

    if engine is None:
        engine = Engine(jobs=1)
    evaluate = delay_evaluator(
        graph, src, dst, options=options, mlp=mlp, engine=engine
    )
    return exact_sweep(
        evaluate, lo, hi, value_tol=value_tol, slope_tol=slope_tol
    )


def delay_evaluator(
    graph: TimingGraph,
    src: str,
    dst: str,
    options: ConstraintOptions | None = None,
    mlp: MLPOptions | None = None,
    engine=None,
) -> Callable[[float], float]:
    """A cached ``x -> optimal Tc`` evaluator for one arc delay.

    Without an engine this is the direct Algorithm-MLP call; with one,
    repeated evaluations at the same ``x`` hit the result cache.  The
    sweep consumes only the period, so the default options skip the verify
    and compact passes (one Tc solve per distinct ``x``, on the default
    cycle-engine route).

    When ``mlp`` names a warm-startable backend (``"revised"``,
    ``"sparse"``), successive evaluations warm-start from the nearest
    solved point's optimal basis, in both modes: the direct path re-costs
    one constraint system per value (:func:`recost_arc_delay`) and hands
    the basis to the next solve; the engine path threads it through the
    job's non-hashed ``warm_start`` slot, so cache keys -- and therefore
    results -- are identical to a cold run.
    """
    mlp = mlp or MLPOptions(verify=False, compact=False)
    chain_warm = mlp.warm_start and supports_warm_start(mlp.backend)
    chain = BasisChain()
    if engine is None:
        state: dict = {"smo": None}

        def evaluate(value: float) -> float:
            if state["smo"] is None:
                state["smo"] = build_program(graph, options or ConstraintOptions())
            smo = recost_arc_delay(state["smo"], src, dst, float(value))
            warm = chain.get(value) if chain_warm else None
            result = minimize_cycle_time(
                smo.graph, options, mlp, warm_start=warm, smo=smo
            )
            if chain_warm:
                chain.put(value, result.extra.get("basis"))
            return result.period

        return evaluate

    from repro.engine.jobspec import MinimizeJob

    def evaluate_cached(value: float) -> float:
        job = MinimizeJob(
            graph=graph,
            options=options,
            mlp=mlp,
            arc_override=(src, dst, float(value)),
            label=f"{src}->{dst}={value:g}",
            warm_start=chain.get(value) if chain_warm else None,
            cold_pivots_hint=chain.cold_hint,
        )
        result = engine.run_jobs([job])[0]
        if not result.ok:
            raise ReproError(
                f"evaluation failed at {value:g}: {result.error}"
            )
        if chain_warm:
            basis_data = result.payload.get("basis")
            if basis_data:
                chain.put(value, Basis.from_dict(basis_data))
            if not chain.cold_hint:
                chain.cold_hint = int(result.metrics.get("lp_iterations", 0))
        return float(result.value)

    return evaluate_cached


def refine_breakpoint(
    evaluate: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-4,
) -> float:
    """Locate a slope change of a convex piecewise-linear curve in [lo, hi].

    Uses the chord test: the curve departs from the chord exactly around
    the breakpoint; ternary-style bisection on the deviation converges to
    the kink.
    """
    f_lo, f_hi = evaluate(lo), evaluate(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = evaluate(mid)
        chord = f_lo + (f_hi - f_lo) * (mid - lo) / (hi - lo)
        # Convexity: curve <= chord; the kink is on the side of the larger gap.
        left_gap = (f_lo + f_mid) / 2 - evaluate((lo + mid) / 2)
        right_gap = (f_mid + f_hi) / 2 - evaluate((mid + hi) / 2)
        tiny = 1e-12 * max(1.0, abs(f_lo), abs(f_hi))
        if chord - f_mid > tiny and left_gap <= tiny and right_gap <= tiny:
            # Both halves are linear yet the midpoint sits below the full
            # chord: the midpoint is exactly the kink.
            return mid
        if left_gap >= right_gap:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
