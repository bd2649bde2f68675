"""Unit tests for repro.circuit.graph (TimingGraph and DelayArc)."""

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.elements import Latch
from repro.circuit.generate import random_multiloop_circuit
from repro.circuit.graph import DelayArc, TimingGraph
from repro.designs.generators import banked_array, pipeline
from repro.errors import CircuitError


def two_latch_graph():
    b = CircuitBuilder(["phi1", "phi2"])
    b.latch("A", phase="phi1", setup=1, delay=2)
    b.latch("B", phase="phi2", setup=1, delay=2)
    b.path("A", "B", 5, min_delay=1)
    b.path("B", "A", 7)
    return b.build()


class TestDelayArc:
    def test_negative_delay_rejected(self):
        with pytest.raises(CircuitError):
            DelayArc("a", "b", -1.0)

    def test_negative_min_delay_rejected(self):
        with pytest.raises(CircuitError):
            DelayArc("a", "b", 1.0, min_delay=-0.1)

    def test_min_above_max_rejected(self):
        with pytest.raises(CircuitError):
            DelayArc("a", "b", 1.0, min_delay=2.0)


class TestStructure:
    def test_counts(self):
        g = two_latch_graph()
        assert g.k == 2
        assert g.l == 2
        assert len(g.arcs) == 2

    def test_lookup(self):
        g = two_latch_graph()
        assert g["A"].phase == "phi1"
        assert "A" in g and "Z" not in g
        with pytest.raises(CircuitError):
            g["Z"]

    def test_duplicate_synchronizer_rejected(self):
        g = two_latch_graph()
        with pytest.raises(CircuitError):
            g.add_synchronizer(Latch(name="A", phase="phi1"))

    def test_unknown_phase_rejected(self):
        g = TimingGraph(["p"])
        with pytest.raises(CircuitError):
            g.add_synchronizer(Latch(name="X", phase="q"))

    def test_duplicate_arc_rejected(self):
        g = two_latch_graph()
        with pytest.raises(CircuitError):
            g.add_arc(DelayArc("A", "B", 1.0))

    def test_arc_to_unknown_sync_rejected(self):
        g = two_latch_graph()
        with pytest.raises(CircuitError):
            g.add_arc(DelayArc("A", "Z", 1.0))

    def test_fanin_fanout(self):
        g = two_latch_graph()
        assert [a.src for a in g.fanin("B")] == ["A"]
        assert [a.dst for a in g.fanout("B")] == ["A"]

    def test_max_fanin(self):
        g = two_latch_graph()
        assert g.max_fanin() == 1

    def test_duplicate_phase_names_rejected(self):
        with pytest.raises(CircuitError):
            TimingGraph(["p", "p"])


class TestKMatrix:
    def test_two_phase_loop(self):
        g = two_latch_graph()
        assert g.k_matrix() == [[0, 1], [1, 0]]

    def test_io_phase_pairs(self):
        assert two_latch_graph().io_phase_pairs() == [(0, 1), (1, 0)]

    def test_flipflop_bounded_arcs_excluded(self):
        b = CircuitBuilder(["phi1", "phi2"])
        b.latch("L", phase="phi1")
        b.flipflop("F", phase="phi2")
        b.path("L", "F", 3)  # latch -> FF: no transparency hazard
        b.path("F", "L", 3)  # FF -> latch: likewise
        g = b.build()
        assert g.k_matrix() == [[0, 0], [0, 0]]

    def test_same_phase_arc(self):
        b = CircuitBuilder(["phi1", "phi2"])
        b.latch("A", phase="phi1")
        b.latch("B", phase="phi1")
        b.path("A", "B", 1)
        assert b.build().k_matrix()[0][0] == 1


class TestLoops:
    def test_feedback_loops_found(self):
        loops = two_latch_graph().feedback_loops()
        assert len(loops) == 1
        assert set(loops[0]) == {"A", "B"}

    def test_scc(self):
        sccs = two_latch_graph().strongly_connected_components()
        assert {"A", "B"} in sccs

    def test_phases_of(self):
        g = two_latch_graph()
        assert g.phases_of(["A", "B"]) == {"phi1", "phi2"}


class TestTransforms:
    def test_with_arc_delay(self):
        g = two_latch_graph().with_arc_delay("A", "B", 9.0)
        assert g.arc("A", "B").delay == 9.0
        # min_delay is preserved (clamped to the new max if needed)
        assert g.arc("A", "B").min_delay == 1.0

    def test_with_arc_delay_clamps_min(self):
        g = two_latch_graph().with_arc_delay("A", "B", 0.5)
        assert g.arc("A", "B").min_delay == 0.5

    def test_with_arc_delay_unknown_arc(self):
        with pytest.raises(CircuitError):
            two_latch_graph().with_arc_delay("B", "B", 1.0)

    def test_scaled_delays(self):
        g = two_latch_graph().scaled_delays(2.0)
        assert g.arc("A", "B").delay == 10.0
        assert g["A"].setup == 2.0 and g["A"].delay == 4.0

    def test_subgraph(self):
        g = two_latch_graph().subgraph(["A"])
        assert g.l == 1 and len(g.arcs) == 0

    def test_subgraph_unknown_name(self):
        with pytest.raises(CircuitError):
            two_latch_graph().subgraph(["A", "Z"])

    def test_to_networkx(self):
        nxg = two_latch_graph().to_networkx()
        assert nxg.number_of_nodes() == 2
        assert nxg["A"]["B"]["delay"] == 5


@pytest.mark.parametrize(
    "graph",
    [
        pipeline(16, 4),
        pipeline(12, 3, k=3),
        banked_array(6, 6),
        random_multiloop_circuit(40, n_extra_arcs=30, k=3, seed=11),
        two_latch_graph().with_arc_delay("A", "B", 3.0),
    ],
    ids=["pipeline", "pipeline-k3", "banked", "multiloop", "with_arc_delay"],
)
class TestAdjacency:
    """fanin/fanout are indexed, but equal the filtered arc scan, in order."""

    def test_fanin_matches_scan(self, graph):
        for name in graph.names:
            assert graph.fanin(name) == tuple(a for a in graph.arcs if a.dst == name)

    def test_fanout_matches_scan(self, graph):
        for name in graph.names:
            assert graph.fanout(name) == tuple(a for a in graph.arcs if a.src == name)

    def test_max_fanin_matches_scan(self, graph):
        counts = {name: 0 for name in graph.names}
        for arc in graph.arcs:
            counts[arc.dst] += 1
        assert graph.max_fanin() == max(counts.values())

    def test_unknown_name_rejected(self, graph):
        with pytest.raises(CircuitError):
            graph.fanin("no-such-latch")
        with pytest.raises(CircuitError):
            graph.fanout("no-such-latch")
