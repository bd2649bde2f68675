"""Data model for max-plus update systems."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import AnalysisError


@dataclass(frozen=True)
class WeightedArc:
    """A dependency ``dst >= src + weight`` in a max-plus system."""

    src: str
    dst: str
    weight: float


@dataclass
class MaxPlusSystem:
    """The system ``D_i = max(floor_i, max over arcs into i (D_src + w))``.

    ``frozen`` nodes keep their floor value and are never updated; they model
    edge-triggered flip-flops, whose departure times are pinned to a clock
    edge rather than floating over an active interval.
    """

    nodes: list[str]
    arcs: list[WeightedArc]
    floors: dict[str, float] = field(default_factory=dict)
    frozen: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        # One index map validates everything in O(V + E) and doubles as the
        # node -> dense-id table the compiled kernels are built on.
        index = {name: i for i, name in enumerate(self.nodes)}
        if len(index) != len(self.nodes):
            raise AnalysisError("duplicate node names in max-plus system")
        for arc in self.arcs:
            if arc.src not in index or arc.dst not in index:
                raise AnalysisError(
                    f"arc {arc.src}->{arc.dst} references unknown node"
                )
        for name in self.floors:
            if name not in index:
                raise AnalysisError(f"floor given for unknown node {name!r}")
        for name in self.frozen:
            if name not in index:
                raise AnalysisError(f"frozen flag on unknown node {name!r}")
        self._index = index

    @property
    def node_index(self) -> dict[str, int]:
        """Node name -> dense integer id (position in :attr:`nodes`).

        Built once during validation and shared with the array kernels in
        :mod:`repro.maxplus.compiled`; treat it as read-only.
        """
        return self._index

    @property
    def structure_key(self) -> str:
        """Fingerprint of the *structure* (nodes, arc pairs, frozen set).

        Arc weights and floors are deliberately excluded: two systems from
        successive points of a delay sweep share a key, so the compiled
        index arrays can be reused and only the weight vector re-costed.
        """
        key = self.__dict__.get("_structure_key")
        if key is None:
            blob = "\x1f".join(
                [
                    "v1",
                    "\x1e".join(self.nodes),
                    "\x1e".join(f"{a.src}\x1d{a.dst}" for a in self.arcs),
                    "\x1e".join(sorted(self.frozen)),
                ]
            )
            key = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
            self._structure_key = key
        return key

    def floor(self, name: str) -> float:
        return self.floors.get(name, 0.0)

    def fanin(self) -> dict[str, list[WeightedArc]]:
        table: dict[str, list[WeightedArc]] = {n: [] for n in self.nodes}
        for arc in self.arcs:
            table[arc.dst].append(arc)
        return table

    def fanout(self) -> dict[str, list[WeightedArc]]:
        table: dict[str, list[WeightedArc]] = {n: [] for n in self.nodes}
        for arc in self.arcs:
            table[arc.src].append(arc)
        return table

    def apply(self, values: Mapping[str, float]) -> dict[str, float]:
        """One synchronous (Jacobi) application of the update map F."""
        fanin = self.fanin()
        out: dict[str, float] = {}
        for node in self.nodes:
            if node in self.frozen:
                out[node] = self.floor(node)
                continue
            best = self.floor(node)
            for arc in fanin[node]:
                best = max(best, values[arc.src] + arc.weight)
            out[node] = best
        return out

    def residual(self, values: Mapping[str, float]) -> float:
        """max |F(values) - values|: zero exactly at a fixpoint."""
        nxt = self.apply(values)
        return max(
            (abs(nxt[n] - values[n]) for n in self.nodes), default=0.0
        )

    def is_prefixed_point(self, values: Mapping[str, float], tol: float = 1e-9) -> bool:
        """True if ``values >= F(values)`` componentwise (LP solutions are)."""
        nxt = self.apply(values)
        return all(values[n] >= nxt[n] - tol for n in self.nodes)
