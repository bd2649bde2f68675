"""Unit tests for CircuitBuilder and structural validation."""

import random

import networkx as nx
import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.generate import random_multiloop_circuit
from repro.circuit.validate import check_loop_phases, check_structure
from repro.clocking.library import symmetric_clock, two_phase_clock
from repro.clocking.phase import ClockPhase
from repro.clocking.schedule import ClockSchedule
from repro.clocking.waveform import simultaneous_and_is_zero
from repro.designs.generators import banked_array, pipeline
from repro.errors import CircuitError, PhaseOverlapError


class TestBuilder:
    def test_chaining(self):
        g = (
            CircuitBuilder(["p", "q"])
            .latch("A", phase="p")
            .latch("B", phase="q")
            .path("A", "B", 1.0)
            .build()
        )
        assert g.l == 2

    def test_latches_bulk(self):
        g = (
            CircuitBuilder(["p"])
            .latches(["A", "B", "C"], phase="p", setup=1, delay=2)
            .build()
        )
        assert g.l == 3
        assert all(s.setup == 1 for s in g.synchronizers)

    def test_chain(self):
        g = (
            CircuitBuilder(["p", "q"])
            .latch("A", phase="p")
            .latch("B", phase="q")
            .latch("C", phase="p")
            .chain(["A", "B", "C"], delay=4.0)
            .build()
        )
        assert g.arc("A", "B").delay == 4.0
        assert g.arc("B", "C").delay == 4.0

    def test_chain_too_short(self):
        with pytest.raises(CircuitError):
            CircuitBuilder(["p"]).latch("A", phase="p").chain(["A"], 1.0)

    def test_duplicate_name_rejected(self):
        b = CircuitBuilder(["p"]).latch("A", phase="p")
        with pytest.raises(CircuitError):
            b.latch("A", phase="p")

    def test_unknown_phase_rejected(self):
        with pytest.raises(CircuitError):
            CircuitBuilder(["p"]).latch("A", phase="zz")

    def test_flipflop(self):
        g = CircuitBuilder(["p"]).flipflop("F", phase="p", edge="fall").build()
        assert not g["F"].is_latch

    def test_empty_phases_rejected(self):
        with pytest.raises(CircuitError):
            CircuitBuilder([])


class TestLoopPhaseCheck:
    def test_single_phase_latch_loop_flagged(self):
        g = (
            CircuitBuilder(["p", "q"])
            .latch("A", phase="p")
            .latch("B", phase="p")
            .path("A", "B", 1)
            .path("B", "A", 1)
            .build()
        )
        problems = check_loop_phases(g)
        assert len(problems) == 1
        assert "single phase" in problems[0]

    def test_two_phase_loop_ok(self):
        g = (
            CircuitBuilder(["p", "q"])
            .latch("A", phase="p")
            .latch("B", phase="q")
            .path("A", "B", 1)
            .path("B", "A", 1)
            .build()
        )
        assert check_loop_phases(g) == []

    def test_flipflop_breaks_loop(self):
        g = (
            CircuitBuilder(["p", "q"])
            .latch("A", phase="p")
            .flipflop("F", phase="p")
            .path("A", "F", 1)
            .path("F", "A", 1)
            .build()
        )
        assert check_loop_phases(g) == []

    def test_schedule_overlap_flagged(self):
        g = (
            CircuitBuilder(["p", "q"])
            .latch("A", phase="p")
            .latch("B", phase="q")
            .path("A", "B", 1)
            .path("B", "A", 1)
            .build()
        )
        overlapping = ClockSchedule(
            100.0, [ClockPhase("p", 0.0, 60.0), ClockPhase("q", 40.0, 30.0)]
        )
        problems = check_loop_phases(g, overlapping)
        assert problems and "simultaneously active" in problems[0]

    def test_schedule_nonoverlap_passes(self):
        g = (
            CircuitBuilder(["phi1", "phi2"])
            .latch("A", phase="phi1")
            .latch("B", phase="phi2")
            .path("A", "B", 1)
            .path("B", "A", 1)
            .build()
        )
        assert check_loop_phases(g, two_phase_clock(100.0)) == []


class TestCheckStructure:
    def test_clean_circuit(self, ex1):
        report = check_structure(ex1)
        assert report.ok
        assert report.warnings == []

    def test_delta_dq_below_setup_is_error(self):
        g = CircuitBuilder(["p"]).latch("A", phase="p", setup=5, delay=2).build()
        report = check_structure(g)
        assert not report.ok
        assert "Delta_DQ" in report.errors[0]

    def test_isolated_sync_warns(self):
        g = CircuitBuilder(["p"]).latch("A", phase="p").build()
        report = check_structure(g)
        assert report.ok
        assert any("isolated" in w for w in report.warnings)

    def test_unused_phase_warns(self):
        g = CircuitBuilder(["p", "unused"]).latch("A", phase="p").build()
        assert any("unused" in w for w in check_structure(g).warnings)

    def test_raise_on_error(self):
        g = (
            CircuitBuilder(["p"])
            .latch("A", phase="p")
            .latch("B", phase="p")
            .path("A", "B", 1)
            .path("B", "A", 1)
            .build()
        )
        with pytest.raises(PhaseOverlapError):
            check_structure(g).raise_on_error()


def _enumerated_loop_phases(graph, schedule=None):
    """Reference LINT101: enumerate every simple cycle and test each one."""
    problems = []
    for loop in nx.simple_cycles(graph.to_networkx()):
        loop = list(loop)
        if any(not graph[name].is_latch for name in loop):
            continue
        phases = graph.phases_of(loop)
        loop_desc = " -> ".join(loop + [loop[0]])
        if len(phases) == 1:
            (only,) = phases
            problems.append(
                f"latch loop {loop_desc} is controlled by the single phase "
                f"{only!r}; the loop is transparent whenever {only!r} is active"
            )
            continue
        if schedule is not None and not simultaneous_and_is_zero(schedule, phases):
            problems.append(
                f"latch loop {loop_desc}: phases {sorted(phases)} are "
                f"simultaneously active under the given schedule"
            )
    return problems


def _random_design(seed):
    """Latches and flip-flops on random phases joined by random arcs."""
    rng = random.Random(seed)
    k = rng.randint(1, 4)
    phases = [f"phi{i + 1}" for i in range(k)]
    b = CircuitBuilder(phases)
    names = [f"S{i}" for i in range(rng.randint(2, 12))]
    for name in names:
        if rng.random() < 0.15:
            b.flipflop(name, phase=rng.choice(phases))
        else:
            b.latch(name, phase=rng.choice(phases))
    g = b.build()
    pairs = set()
    for _ in range(rng.randint(len(names), 3 * len(names))):
        src, dst = rng.choice(names), rng.choice(names)
        # Mostly cross-phase arcs, so both verdicts occur.
        if g[src].phase != g[dst].phase or rng.random() < 0.2:
            pairs.add((src, dst))
    for src, dst in sorted(pairs):
        b.path(src, dst, 1.0)
    return b.build()


def _random_schedule(phases, seed):
    """A schedule whose phases may or may not overlap."""
    rng = random.Random(seed)
    return ClockSchedule(
        100.0,
        [
            ClockPhase(name, rng.uniform(0.0, 90.0), rng.uniform(5.0, 60.0))
            for name in phases
        ],
    )


class TestLoopPhasesFastPath:
    """check_loop_phases skips enumeration only when nothing can be flagged."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_enumeration_on_random_designs(self, seed):
        g = _random_design(seed)
        assert check_loop_phases(g) == _enumerated_loop_phases(g)
        schedule = _random_schedule(g.phase_names, seed)
        assert check_loop_phases(g, schedule) == _enumerated_loop_phases(
            g, schedule
        )

    @pytest.mark.parametrize(
        "graph",
        [
            banked_array(8, 6),
            pipeline(10, 3),
            random_multiloop_circuit(30, n_extra_arcs=20, k=3, seed=5),
        ],
        ids=["banked", "pipeline", "multiloop"],
    )
    def test_matches_enumeration_on_generators(self, graph):
        k = graph.k
        nonoverlapping = symmetric_clock(k, 100.0)
        overlapping = ClockSchedule(
            100.0,
            [
                ClockPhase(p.name, p.start, 1.5 * p.width)
                for p in symmetric_clock(k, 100.0, duty=1.0).phases
            ],
        )
        for schedule in (None, nonoverlapping, overlapping):
            assert check_loop_phases(graph, schedule) == _enumerated_loop_phases(
                graph, schedule
            )
        assert check_loop_phases(graph, nonoverlapping) == []

    def test_single_phase_latch_loop_is_flagged(self):
        g = banked_array(4, 6)
        b = CircuitBuilder(list(g.phase_names))
        for sync in g.synchronizers:
            b.latch(sync.name, phase=sync.phase)
        for arc in g.arcs:
            b.path(arc.src, arc.dst, arc.delay)
        b.latch("X", phase="phi1").latch("Y", phase="phi1")
        b.path("X", "Y", 1.0).path("Y", "X", 1.0)
        g = b.build()
        problems = check_loop_phases(g)
        assert problems == _enumerated_loop_phases(g)
        assert len(problems) == 1 and "single phase 'phi1'" in problems[0]

    def test_self_loop_is_flagged(self):
        g = CircuitBuilder(["p", "q"]).latch("A", phase="p").path("A", "A", 1).build()
        problems = check_loop_phases(g)
        assert problems == _enumerated_loop_phases(g)
        assert len(problems) == 1

    def test_overlapping_phases_are_flagged(self):
        g = banked_array(4, 6)
        overlapping = ClockSchedule(
            100.0, [ClockPhase("phi1", 0.0, 60.0), ClockPhase("phi2", 40.0, 30.0)]
        )
        problems = check_loop_phases(g, overlapping)
        assert problems == _enumerated_loop_phases(g, overlapping)
        assert len(problems) == 4
        assert all("simultaneously active" in p for p in problems)
        assert check_loop_phases(g, two_phase_clock(100.0)) == []
