"""CSR compilation of the difference-constraint graph.

Mirrors the :mod:`repro.maxplus.compiled` split: the *structure* (node
table, edge endpoints, ``b`` coefficients and the in-edge grouping used
by the vectorized Bellman-Ford) depends only on the program's shape and
is cached in a bounded LRU keyed by the same structural fingerprint as
the :mod:`repro.cycle.graph` skeleton cache; the ``a`` weight vector
is re-extracted per instance, so a parametric re-cost costs one
O(edges) ``fromiter`` and nothing else.

Edges are grouped by *head* node: ``order`` permutes edges into
head-sorted position, and ``red_starts``/``red_heads``/``red_counts``
delimit the segments, so one relaxation round is two
``np.minimum.reduceat`` calls over ``dist[in_tail] + w`` -- no python
loop over edges.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import cast

import numpy as np
import numpy.typing as npt

from repro.core.constraints import SMOProgram
from repro.cycle.graph import (
    ConstraintGraph,
    constraint_graph_for,
    structure_fingerprint,
)

_I64 = npt.NDArray[np.int64]
_F64 = npt.NDArray[np.float64]


@dataclass(frozen=True)
class CycleStructure:
    """Shape-only arrays of one constraint graph (shared across re-costs)."""

    nodes: tuple[str, ...]
    index: dict[str, int]
    tail: _I64  #: edge tails, original edge order
    head: _I64  #: edge heads, original edge order
    b: _F64  #: Tc coefficients per edge, original order
    order: _I64  #: permutation sorting edges by head
    in_tail: _I64  #: tail[order]
    b_in: _F64  #: b[order]
    red_heads: _I64  #: distinct heads with incoming edges, sorted
    red_starts: _I64  #: segment starts into the head-sorted edge arrays
    red_counts: _I64  #: segment lengths
    constraints: tuple[str, ...]  #: constraint name per edge, original order
    families: tuple[str, ...]  #: family tag per edge, original order

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return int(self.tail.size)


@dataclass(frozen=True)
class CompiledCycleGraph:
    """A structure plus the current ``a`` weights and scalar Tc bounds."""

    structure: CycleStructure
    graph: ConstraintGraph
    a: _F64  #: additive weights per edge, original order
    a_in: _F64  #: a[order]
    tc_floor: float
    tc_cap: float | None


def _build_structure(cg: ConstraintGraph) -> CycleStructure:
    index = {node: i for i, node in enumerate(cg.nodes)}
    m = len(cg.edges)
    tail = np.fromiter(
        (index[e.tail] for e in cg.edges), dtype=np.int64, count=m
    )
    head = np.fromiter(
        (index[e.head] for e in cg.edges), dtype=np.int64, count=m
    )
    b = np.fromiter((e.b for e in cg.edges), dtype=np.float64, count=m)
    return _structure_from_arrays(
        tuple(cg.nodes),
        index,
        tail,
        head,
        b,
        tuple(e.constraint for e in cg.edges),
        tuple(e.family for e in cg.edges),
    )


def _structure_from_arrays(
    nodes: tuple[str, ...],
    index: dict[str, int],
    tail: _I64,
    head: _I64,
    b: _F64,
    constraints: tuple[str, ...],
    families: tuple[str, ...],
) -> CycleStructure:
    order = np.argsort(head, kind="stable")
    red_heads, red_starts, red_counts = np.unique(
        head[order], return_index=True, return_counts=True
    )
    return CycleStructure(
        nodes=nodes,
        index=index,
        tail=tail,
        head=head,
        b=b,
        order=order,
        in_tail=tail[order],
        b_in=b[order],
        red_heads=red_heads.astype(np.int64),
        red_starts=red_starts.astype(np.int64),
        red_counts=red_counts.astype(np.int64),
        constraints=constraints,
        families=families,
    )


def with_reversed_edges(
    comp: CompiledCycleGraph, edges: _I64
) -> CompiledCycleGraph:
    """``comp`` plus the reverse of each edge in ``edges`` (uncached).

    Edge ``tail -> head`` with weight ``a + b*Tc`` gains the partner
    ``head -> tail`` with weight ``-(a + b*Tc)``; together the two pin
    ``head - tail`` to exactly the bound, so the result is the
    difference system of the face where those edges are tight.  The
    partners follow the original edges in edge order and keep their
    constraint names.
    """
    st = comp.structure
    structure = _structure_from_arrays(
        st.nodes,
        st.index,
        np.concatenate([st.tail, st.head[edges]]),
        np.concatenate([st.head, st.tail[edges]]),
        np.concatenate([st.b, -st.b[edges]]),
        st.constraints + tuple(st.constraints[i] for i in edges),
        st.families + tuple(st.families[i] for i in edges),
    )
    a = np.concatenate([comp.a, -comp.a[edges]])
    return CompiledCycleGraph(
        structure=structure,
        graph=comp.graph,
        a=a,
        a_in=a[structure.order],
        tc_floor=comp.tc_floor,
        tc_cap=comp.tc_cap,
    )


_STRUCTURE_CACHE_SIZE = 128
_STRUCTURES: "OrderedDict[str, CycleStructure]" = OrderedDict()
_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def compile_cycle_graph(
    cg: ConstraintGraph, key: str | None = None
) -> CompiledCycleGraph:
    """Lower a constraint graph to CSR arrays.

    ``key`` is the structural fingerprint of the originating program (see
    :func:`repro.cycle.graph.structure_fingerprint`); when given, the
    shape arrays are looked up in -- or inserted into -- the shared LRU,
    and only the ``a`` vector is extracted from this particular graph.
    Without a key the structure is built uncached.
    """
    structure: CycleStructure | None = None
    if key is not None:
        structure = _STRUCTURES.get(key)
        if structure is not None and (
            structure.n_edges != len(cg.edges)
            or structure.n_nodes != len(cg.nodes)
        ):  # pragma: no cover - fingerprint collision guard
            structure = None
    if structure is None:
        _STATS["misses"] += 1
        structure = _build_structure(cg)
        if key is not None:
            _STRUCTURES[key] = structure
            if len(_STRUCTURES) > _STRUCTURE_CACHE_SIZE:
                _STRUCTURES.popitem(last=False)
                _STATS["evictions"] += 1
    else:
        _STATS["hits"] += 1
        _STRUCTURES.move_to_end(key)  # type: ignore[arg-type]
    m = len(cg.edges)
    a = np.fromiter((e.a for e in cg.edges), dtype=np.float64, count=m)
    return CompiledCycleGraph(
        structure=structure,
        graph=cg,
        a=a,
        a_in=a[structure.order],
        tc_floor=cg.tc_floor,
        tc_cap=cg.tc_cap,
    )


def compiled_graph_for(smo: SMOProgram) -> CompiledCycleGraph:
    """The compiled difference graph of ``smo``, memoized on the instance.

    The memo is guarded like :func:`~repro.cycle.graph.constraint_graph_for`'s
    (the program object and its row count).  A program derived by
    :func:`repro.core.constraints.pin_period` whose derivation still holds
    reuses its source's structure and weights -- a ``FIX[Tc]`` row adds no
    edge -- with the pinned graph's scalar bounds.
    """
    program = smo.program
    n_rows = len(program)
    memo = smo.__dict__.get("_compiled_memo")
    if memo is not None and memo[0] is program and memo[1] == n_rows:
        return cast(CompiledCycleGraph, memo[2])
    cg = constraint_graph_for(smo)
    pin = smo.pinned
    if pin is not None and pin.holds(smo):
        base = compiled_graph_for(pin.source)
        comp = CompiledCycleGraph(
            structure=base.structure,
            graph=cg,
            a=base.a,
            a_in=base.a_in,
            tc_floor=cg.tc_floor,
            tc_cap=cg.tc_cap,
        )
    else:
        comp = compile_cycle_graph(cg, key=structure_fingerprint(smo))
    smo.__dict__["_compiled_memo"] = (program, n_rows, comp)
    return comp


def cycle_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters plus current size of the structure cache."""
    return dict(_STATS, size=len(_STRUCTURES))


def clear_cycle_cache() -> None:
    """Drop all cached structures and reset the counters (for tests)."""
    _STRUCTURES.clear()
    for counter in _STATS:
        _STATS[counter] = 0
