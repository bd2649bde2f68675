"""Compiled numpy kernels for the max-plus fixpoint iteration.

The dict kernels in :mod:`repro.maxplus.fixpoint` walk Python objects --
per-node fanin lists of :class:`WeightedArc` -- which dominates the
non-LP runtime of Algorithm MLP on generated circuits.  This module
lowers a :class:`MaxPlusSystem` into flat arrays once and then runs the
same iterations as whole-array operations:

* int node ids (``system.node_index``) instead of name strings;
* a CSR-style fanin index (``in_ptr``/``in_src``/``in_weight``, arcs
  sorted by destination) so one ``np.maximum.reduceat`` computes every
  node's propagation candidate per sweep;
* a floor vector and a frozen mask instead of dict/set membership tests.

Two kernels mirror the two sweep methods; the event worklist stays on
dicts:

* **jacobi** -- one vectorized sweep per iteration, bit-identical to the
  dict listing (same update schedule, same float operations, same sweep
  counts);
* **gauss-seidel** -- *blocked*: nodes are partitioned, in order, into
  maximal runs with no intra-run fanin, and each run updates as one
  vectorized step.  Because a run never reads a value written inside
  itself, the result is bit-identical to the sequential dict sweep.
  (On pure latch rings every run has length 1 and the dict kernel is
  already optimal; blocking pays off on graphs with parallel stages.)

The module also holds the code base's one negative-cycle search,
:func:`find_negative_cycle`: a vectorized Bellman-Ford over head-sorted
CSR arrays.  :mod:`repro.cycle.solver` runs it on the difference graph
at each candidate period, and :func:`find_positive_cycle` on the
negated fanin weights to name a divergent fixpoint's latch loop.

The lowered structure is cached per :attr:`MaxPlusSystem.structure_key`: successive
points of a delay sweep share every index array and re-cost only the
weight vector.  :func:`repro.core.constraints.build_maxplus_system`
pre-computes that weight vector with numpy and primes the cache, so a
sweep never re-walks arc objects at all.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.errors import SolverError
from repro.maxplus.fixpoint import (
    FixpointResult,
    _fallback_to_least,
    _raise_divergent,
    _record_slide,
    least_fixpoint,
    slide,
)
from repro.maxplus.system import MaxPlusSystem
from repro.obs import metrics, trace

#: node count at or above which ``kernel="auto"`` switches to arrays.
AUTO_ARRAY_MIN_NODES = 64


@dataclass
class CompiledStructure:
    """The weight-independent part of a lowered system (shared by key)."""

    names: tuple[str, ...]
    n: int
    m: int
    frozen_mask: np.ndarray  # bool[n]
    active_mask: np.ndarray  # bool[n] == ~frozen_mask
    in_ptr: np.ndarray  # int64[n+1], fanin CSR offsets (by node id)
    in_src: np.ndarray  # int64[m], source id per CSR slot
    in_dst: np.ndarray  # int64[m], destination id per CSR slot
    in_order: np.ndarray  # int64[m], arc order -> CSR slot permutation
    red_nodes: np.ndarray  # int64, ids with nonempty fanin
    red_starts: np.ndarray  # int64, reduceat starts (one per red node)
    block_bounds: np.ndarray  # int64[B+1], Gauss-Seidel run boundaries
    block_red: np.ndarray  # int64[B+1], red-index range per run


@dataclass
class CompiledMaxPlus:
    """A :class:`MaxPlusSystem` lowered to flat numpy arrays."""

    structure: CompiledStructure
    in_weight: np.ndarray  # float64[m], CSR order
    floors: np.ndarray  # float64[n]


# Bounded structure cache keyed by MaxPlusSystem.structure_key.
_STRUCTURES: OrderedDict[str, CompiledStructure] = OrderedDict()
_STRUCTURE_CACHE_SIZE = 128
_STATS = {"structure_hits": 0, "structure_misses": 0, "compiles": 0}


def cache_stats() -> dict[str, int]:
    """Counters for the structure cache (hit/miss telemetry for tests)."""
    return dict(_STATS)


def clear_cache() -> None:
    """Drop every cached structure (benchmarks measure cold compiles)."""
    _STRUCTURES.clear()
    for key in _STATS:
        _STATS[key] = 0


def _build_structure(system: MaxPlusSystem) -> CompiledStructure:
    index = system.node_index
    n = len(system.nodes)
    m = len(system.arcs)
    frozen_mask = np.zeros(n, dtype=bool)
    for name in system.frozen:
        frozen_mask[index[name]] = True

    src = np.fromiter(
        (index[a.src] for a in system.arcs), dtype=np.int64, count=m
    )
    dst = np.fromiter(
        (index[a.dst] for a in system.arcs), dtype=np.int64, count=m
    )
    order = np.argsort(dst, kind="stable")
    in_src = src[order]
    in_dst = dst[order]
    counts = np.bincount(dst, minlength=n)
    in_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=in_ptr[1:])

    nonempty = in_ptr[:-1] < in_ptr[1:]
    red_nodes = np.nonzero(nonempty)[0]
    red_starts = in_ptr[:-1][nonempty]

    # Gauss-Seidel runs: maximal consecutive id ranges with no fanin from
    # an *earlier unfrozen* node of the same range.  Frozen sources never
    # change within a sweep, so they cannot break a run.
    bounds = [0]
    run_start = 0
    for i in range(n):
        lo, hi = in_ptr[i], in_ptr[i + 1]
        if lo < hi:
            srcs = in_src[lo:hi]
            inside = (srcs >= run_start) & (srcs < i)
            if inside.any() and not frozen_mask[srcs[inside]].all():
                bounds.append(i)
                run_start = i
    bounds.append(n)
    block_bounds = np.asarray(bounds, dtype=np.int64)
    block_red = np.searchsorted(red_nodes, block_bounds)

    return CompiledStructure(
        names=tuple(system.nodes),
        n=n,
        m=m,
        frozen_mask=frozen_mask,
        active_mask=~frozen_mask,
        in_ptr=in_ptr,
        in_src=in_src,
        in_dst=in_dst,
        in_order=order,
        red_nodes=red_nodes,
        red_starts=red_starts,
        block_bounds=block_bounds,
        block_red=block_red,
    )


def prime_weights(system: MaxPlusSystem, weights: np.ndarray) -> None:
    """Attach a precomputed arc-order weight vector to ``system``.

    :func:`repro.core.constraints.build_maxplus_system` calls this with
    the vector it already computed, so :func:`compile_system` never has
    to re-walk the :class:`WeightedArc` objects.
    """
    system.__dict__["_arc_weights"] = np.ascontiguousarray(
        weights, dtype=np.float64
    )


def compile_system(system: MaxPlusSystem) -> CompiledMaxPlus:
    """Lower ``system`` to arrays, reusing cached structure where possible.

    The result is memoized on the system instance (systems are treated
    as immutable after construction, which every builder in this code
    base honors).  The weight-independent index arrays are additionally
    shared across systems with equal :attr:`MaxPlusSystem.structure_key`,
    so a delay sweep pays one structural lowering for the whole sweep and
    an O(arcs) weight re-cost per point.
    """
    cached = system.__dict__.get("_compiled")
    if cached is not None:
        return cached

    traced = trace.is_enabled()
    with trace.span(
        "maxplus.compile", nodes=len(system.nodes), arcs=len(system.arcs)
    ) as span:
        key = system.structure_key
        structure = _STRUCTURES.get(key)
        if structure is None:
            _STATS["structure_misses"] += 1
            metrics.inc("maxplus_structure_cache_total", result="miss")
            structure = _build_structure(system)
            _STRUCTURES[key] = structure
            while len(_STRUCTURES) > _STRUCTURE_CACHE_SIZE:
                _STRUCTURES.popitem(last=False)
            if traced:
                span.set("structure_cache", "miss")
        else:
            _STATS["structure_hits"] += 1
            metrics.inc("maxplus_structure_cache_total", result="hit")
            _STRUCTURES.move_to_end(key)
            if traced:
                span.set("structure_cache", "hit")
                trace.add_event("maxplus.recost", arcs=structure.m)

        _STATS["compiles"] += 1
        weights = system.__dict__.get("_arc_weights")
        if weights is None:
            weights = np.fromiter(
                (a.weight for a in system.arcs),
                dtype=np.float64,
                count=structure.m,
            )
        in_weight = weights[structure.in_order]

        floors = np.zeros(structure.n, dtype=np.float64)
        if system.floors:
            index = system.node_index
            for name, value in system.floors.items():
                floors[index[name]] = value

        compiled = CompiledMaxPlus(
            structure=structure, in_weight=in_weight, floors=floors
        )
    system.__dict__["_compiled"] = compiled
    return compiled


# ----------------------------------------------------------------------
# Shared sweep primitives
# ----------------------------------------------------------------------
def _sweep_best(comp: CompiledMaxPlus, values: np.ndarray) -> np.ndarray:
    """``max(floor_i, max over fanin (values[src] + w))`` for every node."""
    st = comp.structure
    best = comp.floors.copy()
    if st.m:
        cand = values[st.in_src] + comp.in_weight
        seg = np.maximum.reduceat(cand, st.red_starts)
        best[st.red_nodes] = np.maximum(best[st.red_nodes], seg)
    return best


def _block_best(
    comp: CompiledMaxPlus, values: np.ndarray, b: int
) -> tuple[int, int, np.ndarray]:
    """The sweep candidate restricted to Gauss-Seidel run ``b``."""
    st = comp.structure
    lo = int(st.block_bounds[b])
    hi = int(st.block_bounds[b + 1])
    best = comp.floors[lo:hi].copy()
    a0, a1 = int(st.in_ptr[lo]), int(st.in_ptr[hi])
    if a1 > a0:
        cand = values[st.in_src[a0:a1]] + comp.in_weight[a0:a1]
        r0, r1 = int(st.block_red[b]), int(st.block_red[b + 1])
        seg = np.maximum.reduceat(cand, st.red_starts[r0:r1] - a0)
        idx = st.red_nodes[r0:r1] - lo
        best[idx] = np.maximum(best[idx], seg)
    return lo, hi, best


def _as_dict(st: CompiledStructure, values: np.ndarray) -> dict[str, float]:
    return dict(zip(st.names, values.tolist()))


def _start_vector(
    comp: CompiledMaxPlus, start: Mapping[str, float]
) -> np.ndarray:
    st = comp.structure
    values = np.fromiter(
        (float(start[name]) for name in st.names),
        dtype=np.float64,
        count=st.n,
    )
    if st.frozen_mask.any():
        values[st.frozen_mask] = comp.floors[st.frozen_mask]
    return values


# ----------------------------------------------------------------------
# least_fixpoint kernels
# ----------------------------------------------------------------------
def least_fixpoint_arrays(
    system: MaxPlusSystem, method: str = "event", tol: float = 1e-9
) -> FixpointResult:
    """Array implementation of :func:`repro.maxplus.fixpoint.least_fixpoint`.

    Jacobi and Gauss-Seidel reproduce the dict kernels bit for bit
    (values *and* sweep counts).  The event worklist has no array form:
    ``method="event"`` runs the dict kernel.
    """
    if method == "event":
        return least_fixpoint(system, method=method, tol=tol)
    comp = compile_system(system)
    st = comp.structure
    n = st.n

    values = comp.floors.copy()
    for sweep in range(n + 1):
        if method == "jacobi":
            best = _sweep_best(comp, values)
            upd = st.active_mask & (best > values + tol)
            if not upd.any():
                return FixpointResult(
                    values=_as_dict(st, values),
                    iterations=sweep + 1,
                    method=method,
                )
            np.copyto(values, best, where=upd)
        else:  # gauss-seidel: runs update in place, in node order
            changed = False
            for b in range(len(st.block_bounds) - 1):
                lo, hi, best = _block_best(comp, values, b)
                cur = values[lo:hi]
                upd = st.active_mask[lo:hi] & (best > cur + tol)
                if upd.any():
                    changed = True
                    np.copyto(cur, best, where=upd)
            if not changed:
                return FixpointResult(
                    values=_as_dict(st, values),
                    iterations=sweep + 1,
                    method=method,
                )
    _raise_divergent(system)
    raise AssertionError("unreachable")  # pragma: no cover


# ----------------------------------------------------------------------
# slide kernels
# ----------------------------------------------------------------------
def slide_arrays(
    system: MaxPlusSystem,
    start: Mapping[str, float],
    method: str = "jacobi",
    tol: float = 1e-9,
    max_sweeps: int | None = None,
) -> FixpointResult:
    """Array implementation of :func:`repro.maxplus.fixpoint.slide`.

    Same contract as the dict kernel, including the exact least-fixpoint
    fallback when the sweep cap is hit (the dict worklist computes it, so
    the fallback is bit-identical too).  Jacobi and Gauss-Seidel are
    bit-identical to their dict counterparts; ``method="event"`` runs
    the dict kernel.
    """
    if method == "event":
        return slide(
            system, start, method=method, tol=tol, max_sweeps=max_sweeps
        )
    comp = compile_system(system)
    st = comp.structure
    n = st.n
    if max_sweeps is None:
        max_sweeps = max(10 * n, 100)
    values = _start_vector(comp, start)
    traced = trace.is_enabled()

    residual = 0.0
    residuals: list[float] = [] if traced else None  # type: ignore[assignment]
    for sweep in range(max_sweeps):
        if method == "jacobi":
            best = _sweep_best(comp, values)
            delta = np.abs(best - values)
            upd = st.active_mask & (delta > tol)
            changed = bool(upd.any())
            sweep_max = float(delta[upd].max()) if changed else 0.0
            if changed:
                np.copyto(values, best, where=upd)
        else:  # gauss-seidel over runs, in place
            changed = False
            sweep_max = 0.0
            for b in range(len(st.block_bounds) - 1):
                lo, hi, best = _block_best(comp, values, b)
                cur = values[lo:hi]
                delta = np.abs(best - cur)
                upd = st.active_mask[lo:hi] & (delta > tol)
                if upd.any():
                    changed = True
                    sweep_max = max(sweep_max, float(delta[upd].max()))
                    np.copyto(cur, best, where=upd)
        if changed:
            residual = sweep_max
        if traced:
            residuals.append(sweep_max)
            trace.add_event("slide.sweep", sweep=sweep, residual=sweep_max)
        if not changed:
            _record_slide(traced, sweep + 1, residual, residuals)
            return FixpointResult(
                values=_as_dict(st, values),
                iterations=sweep + 1,
                method=method,
                residual=residual,
            )
    return _fallback_to_least(system, method)


# ----------------------------------------------------------------------
# Negative-cycle search (shared with repro.cycle.solver)
# ----------------------------------------------------------------------
def _predecessor_cycle(
    pred: np.ndarray, in_tail: np.ndarray, n: int
) -> tuple[int, ...] | None:
    """A cycle in the predecessor graph, as head-sorted edge slots.

    Classic Bellman-Ford fact: whenever the predecessor pointers contain
    a cycle (at any point during relaxation), that cycle has negative
    weight.  Detection is vectorized by pointer doubling over the
    successor map ``v -> tail(pred[v])`` with an absorbing terminal for
    rootless nodes; extraction then walks ``n`` predecessor hops from any
    surviving node, which is guaranteed to land on the cycle.
    """
    succ = np.where(pred >= 0, in_tail[np.maximum(pred, 0)], n)
    chain = np.append(succ, n).astype(np.int64)
    hops = 1
    while hops < n:
        chain = chain[chain]
        hops *= 2
    live = np.flatnonzero(chain[:n] != n)
    if live.size == 0:
        return None
    node = int(live[0])
    for _ in range(n):
        node = int(in_tail[pred[node]])
    start = node
    slots: list[int] = []
    while True:
        slot = int(pred[node])
        slots.append(slot)
        node = int(in_tail[slot])
        if node == start:
            break
    slots.reverse()
    return tuple(slots)


def find_negative_cycle(
    in_tail: np.ndarray,
    red_heads: np.ndarray,
    red_starts: np.ndarray,
    red_counts: np.ndarray,
    order: np.ndarray,
    w: np.ndarray,
    dist: np.ndarray,
    eps: float,
) -> tuple[tuple[int, ...], int]:
    """Vectorized Bellman-Ford over head-sorted CSR edge arrays.

    ``in_tail[s]`` and ``w[s]`` are the tail and weight of slot ``s``;
    ``red_heads``/``red_starts``/``red_counts`` delimit the slots of each
    head with incoming edges, and ``order[s]`` is the slot's original
    edge index.  ``dist`` is relaxed in place (an edge improves its head
    only by more than ``eps``).  One round is two ``minimum.reduceat``
    sweeps; a predecessor-graph cycle check runs periodically, so a
    negative cycle is found long before the |V|-round worst case.

    Returns ``(cycle, rounds)``: ``cycle`` is empty when ``dist``
    settled, and otherwise lists a negative cycle's original edge
    indices in path order, rotated to start at the lowest, so the
    listing does not depend on where the predecessor walk entered it.
    """
    n = dist.size
    m = in_tail.size
    if m == 0:
        return (), 0
    pred = np.full(n, -1, dtype=np.int64)
    slots = np.arange(m, dtype=np.int64)
    check_every = 32
    max_rounds = 3 * n + 2
    for rounds in range(1, max_rounds + 1):
        cand = dist[in_tail] + w
        seg_min = np.minimum.reduceat(cand, red_starts)
        improved = seg_min < dist[red_heads] - eps
        if not improved.any():
            return (), rounds
        seg_full = np.repeat(seg_min, red_counts)
        seg_argmin = np.minimum.reduceat(
            np.where(cand <= seg_full, slots, m), red_starts
        )
        heads = red_heads[improved]
        dist[heads] = seg_min[improved]
        pred[heads] = seg_argmin[improved]
        if rounds % check_every == 0 or rounds >= n:
            cycle_slots = _predecessor_cycle(pred, in_tail, n)
            if cycle_slots is not None:
                cycle = [int(order[s]) for s in cycle_slots]
                first = cycle.index(min(cycle))
                return tuple(cycle[first:] + cycle[:first]), rounds
    raise SolverError(  # pragma: no cover - relaxation must settle by 3|V|
        f"Bellman-Ford did not settle within {max_rounds} rounds"
    )


def find_positive_cycle(
    system: MaxPlusSystem, tol: float = 1e-9
) -> list[str] | None:
    """The node sequence of a positive-weight cycle of ``system``, or None.

    A positive max-plus cycle is a negative cycle under negated weights,
    so this is :func:`find_negative_cycle` on the compiled fanin arrays,
    every node starting at 0.  Arcs with a frozen endpoint weigh
    ``+inf``: frozen nodes never propagate an increase.  The cycle starts
    at its lowest arc index and is returned only once its arc weights
    re-sum positive.
    """
    comp = compile_system(system)
    st = comp.structure
    blocked = st.frozen_mask[st.in_src] | st.frozen_mask[st.in_dst]
    cycle, _ = find_negative_cycle(
        st.in_src,
        st.red_nodes,
        st.red_starts,
        np.diff(st.in_ptr)[st.red_nodes],
        st.in_order,
        np.where(blocked, np.inf, -comp.in_weight),
        np.zeros(st.n),
        tol,
    )
    arcs = [system.arcs[i] for i in cycle]
    if not arcs or sum(arc.weight for arc in arcs) <= 0.0:
        return None
    return [arc.src for arc in arcs]
