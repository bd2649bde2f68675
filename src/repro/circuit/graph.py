"""The synchronizer-level timing graph: latches plus combinational arcs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.circuit.elements import FlipFlop, Latch, Synchronizer
from repro.errors import CircuitError

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class DelayArc:
    """A combinational path from synchronizer ``src`` to synchronizer ``dst``.

    ``delay`` is the paper's long-path delay ``Delta_{src,dst}`` (the latest
    any input change at ``src`` can still be rippling at ``dst``); ``min_delay``
    is the corresponding short-path (contamination) delay used only by the
    hold-time extension.  Arcs between unconnected synchronizer pairs simply
    do not exist (the paper writes ``Delta_ij = -inf`` for those).
    """

    src: str
    dst: str
    delay: float
    min_delay: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise CircuitError(
                f"arc {self.src}->{self.dst}: delay must be >= 0, got {self.delay}"
            )
        if self.min_delay < 0:
            raise CircuitError(
                f"arc {self.src}->{self.dst}: min_delay must be >= 0, "
                f"got {self.min_delay}"
            )
        if self.min_delay > self.delay:
            raise CircuitError(
                f"arc {self.src}->{self.dst}: min_delay {self.min_delay} "
                f"exceeds max delay {self.delay}"
            )


class TimingGraph:
    """Synchronizers and combinational delay arcs, plus the phase list.

    This is the circuit abstraction the paper's formulation works on (its
    Fig. 1): ``l`` clocked synchronizers, each bound to one of the ``k``
    phases of the clock, connected by combinational blocks whose
    latch-to-latch propagation delays are the ``Delta_ji`` parameters.

    The graph stores only *structure and delays*; the concrete clock
    schedule (``Tc``, ``s_i``, ``T_i``) is supplied separately, either as a
    :class:`repro.clocking.ClockSchedule` for analysis or as LP variables
    for optimization.
    """

    def __init__(
        self,
        phase_names: Sequence[str],
        synchronizers: Iterable[Synchronizer] = (),
        arcs: Iterable[DelayArc] = (),
    ):
        if not phase_names:
            raise CircuitError("a circuit needs at least one clock phase")
        if len(set(phase_names)) != len(phase_names):
            raise CircuitError(f"duplicate phase names: {list(phase_names)}")
        self._phase_names: tuple[str, ...] = tuple(phase_names)
        self._phase_index = {n: i for i, n in enumerate(self._phase_names)}
        self._synchronizers: dict[str, Synchronizer] = {}
        self._arcs: dict[tuple[str, str], DelayArc] = {}
        # Per-synchronizer arc lists in insertion order, so fanin/fanout
        # cost O(degree) and return arcs in the order of ``arcs``.
        self._in: dict[str, list[DelayArc]] = {}
        self._out: dict[str, list[DelayArc]] = {}
        for s in synchronizers:
            self.add_synchronizer(s)
        for a in arcs:
            self.add_arc(a)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_synchronizer(self, sync: Synchronizer) -> None:
        if sync.name in self._synchronizers:
            raise CircuitError(f"duplicate synchronizer name {sync.name!r}")
        if sync.phase not in self._phase_index:
            raise CircuitError(
                f"synchronizer {sync.name!r} references unknown phase "
                f"{sync.phase!r}; known phases: {list(self._phase_names)}"
            )
        self._synchronizers[sync.name] = sync
        self._in[sync.name] = []
        self._out[sync.name] = []

    def add_arc(self, arc: DelayArc) -> None:
        for endpoint in (arc.src, arc.dst):
            if endpoint not in self._synchronizers:
                raise CircuitError(
                    f"arc {arc.src}->{arc.dst} references unknown "
                    f"synchronizer {endpoint!r}"
                )
        key = (arc.src, arc.dst)
        if key in self._arcs:
            raise CircuitError(
                f"duplicate arc {arc.src}->{arc.dst}; merge parallel paths "
                f"into a single max/min delay pair first"
            )
        self._arcs[key] = arc
        self._in[arc.dst].append(arc)
        self._out[arc.src].append(arc)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def phase_names(self) -> tuple[str, ...]:
        return self._phase_names

    @property
    def k(self) -> int:
        """Number of clock phases."""
        return len(self._phase_names)

    @property
    def l(self) -> int:  # noqa: E743 - matches the paper's symbol
        """Number of synchronizers."""
        return len(self._synchronizers)

    def phase_index(self, name: str) -> int:
        try:
            return self._phase_index[name]
        except KeyError:
            raise CircuitError(
                f"unknown phase {name!r}; known: {list(self._phase_names)}"
            ) from None

    @property
    def synchronizers(self) -> tuple[Synchronizer, ...]:
        return tuple(self._synchronizers.values())

    @property
    def latches(self) -> tuple[Latch, ...]:
        return tuple(s for s in self._synchronizers.values() if s.is_latch)

    @property
    def flipflops(self) -> tuple[FlipFlop, ...]:
        return tuple(s for s in self._synchronizers.values() if not s.is_latch)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._synchronizers)

    @property
    def arcs(self) -> tuple[DelayArc, ...]:
        return tuple(self._arcs.values())

    def __contains__(self, name: str) -> bool:
        return name in self._synchronizers

    def __getitem__(self, name: str) -> Synchronizer:
        try:
            return self._synchronizers[name]
        except KeyError:
            raise CircuitError(f"unknown synchronizer {name!r}") from None

    def __iter__(self) -> Iterator[Synchronizer]:
        return iter(self._synchronizers.values())

    def __repr__(self) -> str:
        return (
            f"TimingGraph(k={self.k}, synchronizers={self.l}, "
            f"arcs={len(self._arcs)})"
        )

    def arc(self, src: str, dst: str) -> DelayArc | None:
        return self._arcs.get((src, dst))

    def fanin(self, name: str) -> tuple[DelayArc, ...]:
        """All arcs ending at ``name``."""
        if name not in self._synchronizers:
            raise CircuitError(f"unknown synchronizer {name!r}")
        return tuple(self._in[name])

    def fanout(self, name: str) -> tuple[DelayArc, ...]:
        """All arcs starting at ``name``."""
        if name not in self._synchronizers:
            raise CircuitError(f"unknown synchronizer {name!r}")
        return tuple(self._out[name])

    def max_fanin(self) -> int:
        """The paper's ``F``: the maximum number of arcs into any latch."""
        return max(map(len, self._in.values()), default=0)

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def k_matrix(self) -> list[list[int]]:
        """The paper's K matrix (eq. 2) over phase indices.

        ``K[i][j] = 1`` when some combinational block has an input *latch*
        on phase i and an output *latch* on phase j -- i.e. when some arc
        runs between two level-sensitive latches.  Arcs bounded by a
        flip-flop on either end are excluded: a flip-flop is never
        transparent, so such paths create no simultaneous-transparency
        hazard and need no phase-nonoverlap constraint C3.  (This is what
        allows the paper's GaAs case study to overlap phi3 with phi1: the
        pipeline re-enters the phi1 domain only through flip-flops, so
        K_13 = K_31 = 0.)
        """
        k = self.k
        mat = [[0] * k for _ in range(k)]
        for arc in self._arcs.values():
            src, dst = self._synchronizers[arc.src], self._synchronizers[arc.dst]
            if not (src.is_latch and dst.is_latch):
                continue
            mat[self.phase_index(src.phase)][self.phase_index(dst.phase)] = 1
        return mat

    def io_phase_pairs(self) -> list[tuple[int, int]]:
        """The (input, output) phase-index pairs with ``K_ij = 1``."""
        mat = self.k_matrix()
        return [
            (i, j)
            for i in range(self.k)
            for j in range(self.k)
            if mat[i][j]
        ]

    def to_networkx(self) -> nx.DiGraph:
        """The synchronizer connectivity as a networkx digraph.

        Node attributes carry the synchronizer object (key ``sync``); edge
        attributes carry the arc (key ``arc``) and its ``delay``.
        """
        import networkx as nx

        g = nx.DiGraph()
        for name, sync in self._synchronizers.items():
            g.add_node(name, sync=sync)
        for (src, dst), arc in self._arcs.items():
            g.add_edge(src, dst, arc=arc, delay=arc.delay)
        return g

    def feedback_loops(self) -> list[list[str]]:
        """All simple cycles of synchronizers (the paper's feedback loops)."""
        import networkx as nx

        return [list(c) for c in nx.simple_cycles(self.to_networkx())]

    def strongly_connected_components(self) -> list[set[str]]:
        """SCCs of the synchronizer graph (cf. LEADOUT's partitioning)."""
        import networkx as nx

        return [set(c) for c in nx.strongly_connected_components(self.to_networkx())]

    def phases_of(self, names: Iterable[str]) -> set[str]:
        """The set of phases controlling the given synchronizers."""
        return {self[name].phase for name in names}

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_arc_delay(self, src: str, dst: str, delay: float) -> "TimingGraph":
        """A copy of the graph with one arc's max delay replaced.

        This is the workhorse of parametric sweeps such as Fig. 7, where
        ``Delta_41`` is varied while everything else stays fixed.
        """
        key = (src, dst)
        if key not in self._arcs:
            raise CircuitError(f"no arc {src}->{dst} to modify")
        old = self._arcs[key]
        new_arc = DelayArc(
            src,
            dst,
            delay,
            min_delay=min(old.min_delay, delay),
            label=old.label,
        )
        arcs = [new_arc if (a.src, a.dst) == key else a for a in self._arcs.values()]
        return TimingGraph(self._phase_names, self._synchronizers.values(), arcs)

    def scaled_delays(self, factor: float) -> "TimingGraph":
        """A copy with every delay, setup and hold multiplied by ``factor``."""
        if factor < 0:
            raise CircuitError(f"scale factor must be >= 0, got {factor}")
        syncs = []
        for s in self._synchronizers.values():
            kwargs = dict(
                name=s.name,
                phase=s.phase,
                setup=s.setup * factor,
                delay=s.delay * factor,
                hold=s.hold * factor,
            )
            if isinstance(s, FlipFlop):
                syncs.append(FlipFlop(edge=s.edge, **kwargs))
            else:
                syncs.append(Latch(**kwargs))
        arcs = [
            DelayArc(a.src, a.dst, a.delay * factor, a.min_delay * factor, a.label)
            for a in self._arcs.values()
        ]
        return TimingGraph(self._phase_names, syncs, arcs)

    def subgraph(self, names: Iterable[str]) -> "TimingGraph":
        """The induced subgraph on the given synchronizers."""
        keep = set(names)
        missing = keep - set(self._synchronizers)
        if missing:
            raise CircuitError(f"unknown synchronizers: {sorted(missing)}")
        syncs = [s for n, s in self._synchronizers.items() if n in keep]
        arcs = [
            a for a in self._arcs.values() if a.src in keep and a.dst in keep
        ]
        return TimingGraph(self._phase_names, syncs, arcs)
