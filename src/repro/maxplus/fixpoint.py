"""Fixpoint computation for max-plus systems.

Two entry points:

* :func:`least_fixpoint` -- compute the least fixpoint from below
  (Bellman-Ford style; exact, terminates in at most ``|V|`` rounds, detects
  divergence).  This is the physically meaningful solution: the earliest
  periodic departure times under a fixed clock schedule.
* :func:`slide` -- the paper's Algorithm MLP steps 3-5: start from a point
  that satisfies the *relaxed* constraints (e.g. an LP optimum, which is a
  pre-fixed point) and repeatedly apply the update map, "sliding" departure
  times toward the time origin until the max constraints hold with equality.

Both support Jacobi (the paper's listing), Gauss-Seidel, and event-driven
worklist iteration (the paper's suggested enhancement).

Each entry point takes a ``kernel`` argument selecting the execution
engine for the sweep methods: ``"dict"`` (this module's reference
implementation over Python dicts), ``"array"`` (the compiled numpy
kernels in :mod:`repro.maxplus.compiled`), or ``"auto"``, which switches
to arrays on systems large enough for the lowering to pay off.  The
array kernels are bit-identical to the dict kernels, so the choice can
never change a reported value.  The event worklist always runs on dicts.

A divergence is named by the vectorized Bellman-Ford that the cycle
engine uses (:func:`repro.maxplus.compiled.find_positive_cycle`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from repro.errors import AnalysisError, DivergentTimingError
from repro.maxplus.system import MaxPlusSystem
from repro.obs import metrics, trace

_METHODS = ("jacobi", "gauss-seidel", "event")
_KERNELS = ("dict", "array", "auto")


@dataclass
class FixpointResult:
    """Fixpoint values plus convergence bookkeeping.

    ``iterations`` counts full sweeps for the Jacobi/Gauss-Seidel methods
    and individual node updates for the event-driven method.  ``residual``
    is the magnitude of the largest value update applied in the final
    changing sweep (the convergence telemetry the slide reports; 0.0 when
    the start point was already a fixpoint or the values are exact).
    """

    values: dict[str, float]
    iterations: int
    method: str
    converged: bool = True
    residual: float = 0.0


def _check_method(method: str) -> None:
    if method not in _METHODS:
        raise AnalysisError(
            f"unknown iteration method {method!r}; choose from {_METHODS}"
        )


def _check_kernel(kernel: str) -> None:
    if kernel not in _KERNELS:
        raise AnalysisError(
            f"unknown fixpoint kernel {kernel!r}; choose from {_KERNELS}"
        )


def _use_array(system: MaxPlusSystem, method: str, kernel: str) -> bool:
    """Decide whether to run the compiled numpy kernel.

    The event worklist has no array kernel.  For the sweep methods
    ``"array"`` always lowers, and ``"auto"`` lowers Jacobi on large
    systems and blocked Gauss-Seidel when the run structure is also wide
    enough to amortize the per-run dispatch.  Either way the result is
    bit-identical to the dict kernel's.
    """
    if method == "event" or kernel == "dict":
        return False
    if kernel == "array":
        return True
    from repro.maxplus import compiled

    n = len(system.nodes)
    if n < compiled.AUTO_ARRAY_MIN_NODES:
        return False
    if method == "jacobi":
        return True
    structure = compiled.compile_system(system).structure
    blocks = len(structure.block_bounds) - 1
    return blocks > 0 and n / blocks >= 4.0


def least_fixpoint(
    system: MaxPlusSystem,
    method: str = "event",
    tol: float = 1e-9,
    kernel: str = "dict",
) -> FixpointResult:
    """Least fixpoint of ``D = max(floor, max(D_src + w))`` from below.

    Raises :class:`DivergentTimingError` when no fixpoint exists (positive
    dependency cycle), attaching the offending latch cycle to the message.
    """
    _check_method(method)
    _check_kernel(kernel)
    if _use_array(system, method, kernel):
        from repro.maxplus import compiled

        return compiled.least_fixpoint_arrays(system, method=method, tol=tol)
    n = len(system.nodes)
    values = {node: system.floor(node) for node in system.nodes}
    fanin = system.fanin()

    if method == "event":
        fanout = system.fanout()
        updates = 0
        # SPFA-style longest-path propagation.  ``hops`` is the arc count of
        # the walk that set each node's value; a walk of ``n`` arcs repeats
        # a node, and since every step was a strict improvement the repeated
        # loop has positive weight.  (Counting updates per node instead
        # misfires on parallel arcs, which can improve one node more than
        # ``n`` times from a single source without any cycle.)
        queue = deque(system.nodes)
        queued = set(system.nodes)
        hops = {node: 0 for node in system.nodes}
        while queue:
            src = queue.popleft()
            queued.discard(src)
            for arc in fanout[src]:
                dst = arc.dst
                if dst in system.frozen:
                    continue
                cand = values[src] + arc.weight
                if cand > values[dst] + tol:
                    values[dst] = cand
                    updates += 1
                    hops[dst] = hops[src] + 1
                    if hops[dst] >= n:
                        _raise_divergent(system)
                    if dst not in queued:
                        queue.append(dst)
                        queued.add(dst)
        return FixpointResult(values=values, iterations=updates, method=method)

    # Sweep-based methods: at most |V| sweeps suffice for the least fixpoint
    # when one exists (longest-path argument); one more changing sweep means
    # a positive cycle.
    for sweep in range(n + 1):
        changed = False
        current = dict(values) if method == "jacobi" else values
        for node in system.nodes:
            if node in system.frozen:
                continue
            best = system.floor(node)
            for arc in fanin[node]:
                best = max(best, current[arc.src] + arc.weight)
            if best > values[node] + tol:
                values[node] = best
                changed = True
        if not changed:
            return FixpointResult(values=values, iterations=sweep + 1, method=method)
    _raise_divergent(system)
    raise AssertionError("unreachable")  # pragma: no cover


def slide(
    system: MaxPlusSystem,
    start: Mapping[str, float],
    method: str = "jacobi",
    tol: float = 1e-9,
    max_sweeps: int | None = None,
    kernel: str = "dict",
) -> FixpointResult:
    """Algorithm MLP steps 3-5: iterate the update map from ``start``.

    ``start`` must dominate a fixpoint (any point satisfying the relaxed
    constraints L2R does); the iteration is then monotonically decreasing
    and converges to the greatest fixpoint below ``start``.  When the sweep
    cap is hit without convergence (possible when a zero/negative-weight
    cycle makes the slide geometric rather than finite) the exact least
    fixpoint is returned instead -- it satisfies the same constraints and is
    never larger, so optimality is preserved.
    """
    _check_method(method)
    _check_kernel(kernel)
    if _use_array(system, method, kernel):
        from repro.maxplus import compiled

        return compiled.slide_arrays(
            system, start, method=method, tol=tol, max_sweeps=max_sweeps
        )
    n = len(system.nodes)
    if max_sweeps is None:
        max_sweeps = max(10 * n, 100)
    values = {node: float(start[node]) for node in system.nodes}
    for node in system.frozen:
        values[node] = system.floor(node)
    fanin = system.fanin()

    traced = trace.is_enabled()

    if method == "event":
        fanout = system.fanout()
        # Seed with every node; propagate decreases.
        queue = deque(system.nodes)
        queued = set(system.nodes)
        updates = 0
        residual = 0.0
        budget = max_sweeps * max(n, 1)
        while queue:
            if updates > budget:
                return _fallback_to_least(system, method)
            node = queue.popleft()
            queued.discard(node)
            if node in system.frozen:
                continue
            best = system.floor(node)
            for arc in fanin[node]:
                best = max(best, values[arc.src] + arc.weight)
            if best < values[node] - tol:
                delta = values[node] - best
                residual = delta
                values[node] = best
                updates += 1
                if traced:
                    trace.add_event(
                        "slide.update", node=node, delta=delta, update=updates
                    )
                for arc in fanout[node]:
                    if arc.dst not in queued:
                        queue.append(arc.dst)
                        queued.add(arc.dst)
        _record_slide(traced, updates, residual, None)
        return FixpointResult(
            values=values, iterations=updates, method=method, residual=residual
        )

    residual = 0.0
    residuals: list[float] = [] if traced else None  # type: ignore[assignment]
    for sweep in range(max_sweeps):
        changed = False
        sweep_max = 0.0
        current = dict(values) if method == "jacobi" else values
        for node in system.nodes:
            if node in system.frozen:
                continue
            best = system.floor(node)
            for arc in fanin[node]:
                best = max(best, current[arc.src] + arc.weight)
            delta = abs(best - values[node])
            if delta > tol:
                values[node] = best
                changed = True
                if delta > sweep_max:
                    sweep_max = delta
        if changed:
            residual = sweep_max
        if traced:
            residuals.append(sweep_max)
            trace.add_event("slide.sweep", sweep=sweep, residual=sweep_max)
        if not changed:
            _record_slide(traced, sweep + 1, residual, residuals)
            return FixpointResult(
                values=values,
                iterations=sweep + 1,
                method=method,
                residual=residual,
            )
    return _fallback_to_least(system, method)


def _record_slide(
    traced: bool,
    iterations: int,
    residual: float,
    residuals: list[float] | None,
) -> None:
    """Attach convergence telemetry to the enclosing span when tracing."""
    if metrics.is_enabled():
        metrics.observe(
            "maxplus_fixpoint_sweeps",
            float(iterations),
            buckets=metrics.COUNT_BUCKETS,
        )
    if not traced:
        return
    span = trace.current_span()
    span.set("sweeps", iterations)
    span.set("residual", residual)
    if residuals is not None:
        span.set("sweep_residuals", residuals)


def _fallback_to_least(system: MaxPlusSystem, method: str) -> FixpointResult:
    exact = least_fixpoint(system, method="event")
    _record_slide(trace.is_enabled(), exact.iterations, 0.0, None)
    return FixpointResult(
        values=exact.values,
        iterations=exact.iterations,
        method=f"{method}+least-fixpoint",
        converged=True,
        residual=0.0,
    )


def _raise_divergent(system: MaxPlusSystem) -> None:
    from repro.maxplus.compiled import find_positive_cycle

    cycle = find_positive_cycle(system)
    if cycle:
        path = " -> ".join(cycle + [cycle[0]])
        raise DivergentTimingError(
            f"departure times diverge: positive-weight dependency cycle {path}; "
            f"the circuit cannot settle at this clock schedule"
        )
    raise DivergentTimingError(
        "departure times diverge under the given clock schedule"
    )
