"""Agreement tests between the dict and compiled-array fixpoint kernels.

The contract under test (see :mod:`repro.maxplus.compiled`):

* Jacobi and Gauss-Seidel array kernels are *bit-identical* to the dict
  kernels -- same values, same iteration counts, same convergence flags,
  same residuals -- on any system, including randomized circuits, and
  so is the sweep-cap fallback to the exact least fixpoint.
* The event worklist has no array kernel: every ``kernel`` runs the dict
  worklist.
* Divergence (positive-weight cycle) is detected by every kernel/method
  combination.
* The structure cache shares index arrays across systems that differ only
  in weights, and the per-instance memo compiles each system once.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.generate import random_multiloop_circuit, random_pipeline
from repro.clocking.phase import ClockPhase
from repro.clocking.schedule import ClockSchedule
from repro.core.constraints import build_maxplus_system
from repro.core.mlp import MLPOptions, minimize_cycle_time
from repro.errors import AnalysisError, DivergentTimingError
from repro.maxplus import compiled
from repro.maxplus.compiled import find_positive_cycle
from repro.maxplus.fixpoint import least_fixpoint, slide
from repro.maxplus.system import MaxPlusSystem, WeightedArc

EXACT_METHODS = ("jacobi", "gauss-seidel")
ALL_METHODS = ("jacobi", "gauss-seidel", "event")


@st.composite
def random_system(draw):
    n = draw(st.integers(2, 7))
    nodes = [f"n{i}" for i in range(n)]
    arcs = []
    for _ in range(draw(st.integers(1, 12))):
        a = draw(st.sampled_from(nodes))
        b = draw(st.sampled_from(nodes))
        w = draw(st.integers(-20, 6))
        arcs.append(WeightedArc(a, b, float(w)))
    floors = {
        node: float(draw(st.integers(0, 8)))
        for node in nodes
        if draw(st.booleans())
    }
    frozen = {nodes[0]} if draw(st.booleans()) else set()
    return MaxPlusSystem(nodes=nodes, arcs=arcs, floors=floors, frozen=frozen)


def circuit_system(n=24, seed=0):
    graph = random_multiloop_circuit(n, n_extra_arcs=n // 2, seed=seed)
    period = 4000.0
    half = period / 2
    schedule = ClockSchedule(
        period,
        [
            ClockPhase("phi1", 0.0, half - 10.0),
            ClockPhase("phi2", half, half - 10.0),
        ],
    )
    return build_maxplus_system(graph, schedule)


def assert_identical(a, b):
    """Full FixpointResult equality, values compared bit for bit."""
    assert a.values == b.values
    assert a.iterations == b.iterations
    assert a.method == b.method
    assert a.converged == b.converged
    assert a.residual == b.residual


class TestLeastFixpointAgreement:
    @settings(max_examples=80, deadline=None)
    @given(random_system())
    def test_exact_methods_bit_identical(self, system):
        for method in EXACT_METHODS:
            try:
                ref = least_fixpoint(system, method=method, kernel="dict")
            except DivergentTimingError:
                with pytest.raises(DivergentTimingError):
                    least_fixpoint(system, method=method, kernel="array")
                continue
            out = least_fixpoint(system, method=method, kernel="array")
            assert_identical(out, ref)

    @settings(max_examples=40, deadline=None)
    @given(random_system())
    def test_divergence_detected_by_every_kernel(self, system):
        if find_positive_cycle(system) is None:
            return
        for method in ALL_METHODS:
            for kernel in ("dict", "array", "auto"):
                with pytest.raises(DivergentTimingError):
                    least_fixpoint(system, method=method, kernel=kernel)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("method", EXACT_METHODS)
    def test_generated_circuits_bit_identical(self, method, seed):
        system = circuit_system(seed=seed)
        ref = least_fixpoint(system, method=method, kernel="dict")
        out = least_fixpoint(system, method=method, kernel="array")
        assert_identical(out, ref)

    def test_pipeline_circuit(self):
        graph = random_pipeline(10, seed=4)
        schedule = ClockSchedule(
            2000.0, [ClockPhase("phi1", 0.0, 900.0), ClockPhase("phi2", 1000.0, 900.0)]
        )
        system = build_maxplus_system(graph, schedule)
        for method in EXACT_METHODS:
            assert_identical(
                least_fixpoint(system, method=method, kernel="array"),
                least_fixpoint(system, method=method, kernel="dict"),
            )


class TestSlideAgreement:
    @settings(max_examples=60, deadline=None)
    @given(random_system(), st.integers(0, 50))
    def test_exact_methods_bit_identical(self, system, bump):
        if find_positive_cycle(system) is not None:
            return
        base = least_fixpoint(system).values
        start = {k: v + bump for k, v in base.items()}
        for method in EXACT_METHODS:
            # Including the sweep-cap fallback, which both kernels hand to
            # the dict worklist's exact least fixpoint.
            assert_identical(
                slide(system, start, method=method, kernel="array"),
                slide(system, start, method=method, kernel="dict"),
            )

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_sweep_cap_falls_back_like_dict(self, method):
        # Geometric slide: decreases by 0.5 per sweep, hits the cap, and
        # both kernels return the exact least fixpoint instead.
        system = MaxPlusSystem(
            nodes=["a", "b"],
            arcs=[WeightedArc("a", "b", 10.0), WeightedArc("b", "a", -10.5)],
        )
        start = {"a": 1000.0, "b": 1010.0}
        ref = slide(system, start, method=method, max_sweeps=5, kernel="dict")
        out = slide(system, start, method=method, max_sweeps=5, kernel="array")
        assert ref.method == f"{method}+least-fixpoint"
        assert_identical(out, ref)

    def test_frozen_nodes_pinned(self):
        system = MaxPlusSystem(
            nodes=["ff", "l"],
            arcs=[WeightedArc("ff", "l", 1.0)],
            floors={"ff": 4.0},
            frozen={"ff"},
        )
        out = slide(system, {"ff": 99.0, "l": 99.0}, kernel="array")
        assert out.values["ff"] == 4.0
        assert out.values["l"] == 5.0


class TestKernelDispatch:
    def test_unknown_kernel_rejected(self):
        system = circuit_system(n=4)
        with pytest.raises(AnalysisError):
            least_fixpoint(system, kernel="voodoo")
        with pytest.raises(AnalysisError):
            slide(system, {n: 0.0 for n in system.nodes}, kernel="voodoo")

    def test_auto_small_system_stays_dict_identical(self):
        system = circuit_system(n=8)
        for method in ALL_METHODS:
            assert_identical(
                least_fixpoint(system, method=method, kernel="auto"),
                least_fixpoint(system, method=method, kernel="dict"),
            )

    def test_auto_large_system_identical(self):
        system = circuit_system(n=compiled.AUTO_ARRAY_MIN_NODES + 8)
        for method in ALL_METHODS:
            assert_identical(
                least_fixpoint(system, method=method, kernel="auto"),
                least_fixpoint(system, method=method, kernel="dict"),
            )

    def test_auto_sweep_cap_fallback_identical(self):
        # The geometric a <-> b loop feeding a 70-node chain: Jacobi goes
        # to arrays on auto, hits the sweep cap, and falls back to the
        # dict worklist's least fixpoint (71 node updates) like dict does.
        chain = [f"c{i}" for i in range(70)]
        arcs = [
            WeightedArc("a", "b", 10.0),
            WeightedArc("b", "a", -10.5),
            WeightedArc("b", chain[0], 1.0),
        ]
        arcs += [WeightedArc(x, y, 1.0) for x, y in zip(chain, chain[1:])]
        system = MaxPlusSystem(nodes=["a", "b"] + chain, arcs=arcs)
        assert len(system.nodes) >= compiled.AUTO_ARRAY_MIN_NODES
        start = {"a": 1000.0, "b": 1010.0, **{c: 2000.0 for c in chain}}
        ref = slide(system, start, method="jacobi", max_sweeps=5, kernel="dict")
        out = slide(system, start, method="jacobi", max_sweeps=5, kernel="auto")
        assert ref.method == "jacobi+least-fixpoint"
        assert_identical(out, ref)

    def test_minimize_cycle_time_kernel_invariant(self):
        graph = random_multiloop_circuit(72, n_extra_arcs=36, seed=7)
        results = {
            kernel: minimize_cycle_time(graph, mlp=MLPOptions(kernel=kernel))
            for kernel in ("dict", "array", "auto")
        }
        ref = results["dict"]
        for result in results.values():
            assert result.period == pytest.approx(ref.period, abs=1e-9)
            assert result.schedule.period == ref.schedule.period
            for node, value in ref.departures.items():
                assert result.departures[node] == pytest.approx(value, abs=1e-9)


class TestEngineKernelHint:
    def test_kernel_never_splits_the_job_cache(self):
        from repro.engine.jobspec import MinimizeJob, job_key, mlp_signature

        graph = random_multiloop_circuit(8, seed=1)
        base = job_key(MinimizeJob(graph=graph))
        for kernel in ("dict", "array", "auto"):
            assert job_key(MinimizeJob(graph=graph, kernel=kernel)) == base
        # MLPOptions.kernel is likewise excluded from the signature.
        assert mlp_signature(MLPOptions(kernel="array")) == mlp_signature(
            MLPOptions(kernel="dict")
        )

    def test_engine_applies_kernel_hint(self):
        from repro.engine.execute import execute_job
        from repro.engine.jobspec import MinimizeJob

        graph = random_multiloop_circuit(8, seed=1)
        ref = execute_job(MinimizeJob(graph=graph, kernel="dict"))
        out = execute_job(MinimizeJob(graph=graph, kernel="array"))
        assert out.ok and ref.ok
        assert out.key == ref.key
        assert out.value == pytest.approx(ref.value, abs=1e-9)
        assert out.payload["departures"] == pytest.approx(
            ref.payload["departures"], abs=1e-9
        )


class TestStructureCache:
    def test_weight_change_hits_structure_cache(self):
        compiled.clear_cache()
        graph = random_multiloop_circuit(16, n_extra_arcs=8, seed=3)
        sched = ClockSchedule(
            4000.0,
            [ClockPhase("phi1", 0.0, 1900.0), ClockPhase("phi2", 2000.0, 1900.0)],
        )
        sched2 = ClockSchedule(
            4400.0,
            [ClockPhase("phi1", 0.0, 2100.0), ClockPhase("phi2", 2200.0, 2100.0)],
        )
        a = build_maxplus_system(graph, sched)
        b = build_maxplus_system(graph, sched2)
        assert a.structure_key == b.structure_key
        compiled.compile_system(a)
        stats = compiled.cache_stats()
        assert stats == {"structure_hits": 0, "structure_misses": 1, "compiles": 1}
        cb = compiled.compile_system(b)
        stats = compiled.cache_stats()
        assert stats == {"structure_hits": 1, "structure_misses": 1, "compiles": 2}
        # Shared structure object, distinct weight vectors.
        assert cb.structure is compiled.compile_system(a).structure
        assert least_fixpoint(a, kernel="array").values == pytest.approx(
            least_fixpoint(a).values, abs=1e-9
        )

    def test_instance_memo_compiles_once(self):
        compiled.clear_cache()
        system = circuit_system(n=8)
        first = compiled.compile_system(system)
        assert compiled.compile_system(system) is first
        assert compiled.cache_stats()["compiles"] == 1

    def test_structure_key_sensitivity(self):
        base = MaxPlusSystem(
            nodes=["a", "b"], arcs=[WeightedArc("a", "b", 1.0)]
        )
        same_weights_differ = MaxPlusSystem(
            nodes=["a", "b"], arcs=[WeightedArc("a", "b", 2.0)]
        )
        different_arcs = MaxPlusSystem(
            nodes=["a", "b"], arcs=[WeightedArc("b", "a", 1.0)]
        )
        different_frozen = MaxPlusSystem(
            nodes=["a", "b"],
            arcs=[WeightedArc("a", "b", 1.0)],
            floors={"a": 0.0},
            frozen={"a"},
        )
        assert base.structure_key == same_weights_differ.structure_key
        assert base.structure_key != different_arcs.structure_key
        assert base.structure_key != different_frozen.structure_key


class TestSystemIndex:
    def test_node_index_matches_order(self):
        system = circuit_system(n=6)
        assert list(system.node_index) == list(system.nodes)
        assert list(system.node_index.values()) == list(range(len(system.nodes)))

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(AnalysisError):
            MaxPlusSystem(nodes=["a", "a"], arcs=[])

    def test_unknown_arc_floor_frozen_rejected(self):
        with pytest.raises(AnalysisError):
            MaxPlusSystem(nodes=["a"], arcs=[WeightedArc("a", "zzz", 1.0)])
        with pytest.raises(AnalysisError):
            MaxPlusSystem(nodes=["a"], arcs=[], floors={"b": 1.0})
        with pytest.raises(AnalysisError):
            MaxPlusSystem(nodes=["a"], arcs=[], frozen={"b"})
