"""Unit and property tests for the max-plus fixpoint engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError, DivergentTimingError
from repro.maxplus.compiled import find_positive_cycle
from repro.maxplus.fixpoint import least_fixpoint, slide
from repro.maxplus.system import MaxPlusSystem, WeightedArc


def chain_system():
    """a -> b -> c with positive weights: a simple longest-path problem."""
    return MaxPlusSystem(
        nodes=["a", "b", "c"],
        arcs=[WeightedArc("a", "b", 3.0), WeightedArc("b", "c", 2.0)],
        floors={"a": 1.0},
    )


def negative_loop_system(weight=-1.0):
    return MaxPlusSystem(
        nodes=["a", "b"],
        arcs=[WeightedArc("a", "b", 5.0), WeightedArc("b", "a", weight - 5.0)],
    )


class TestSystem:
    def test_unknown_arc_node_rejected(self):
        with pytest.raises(AnalysisError):
            MaxPlusSystem(nodes=["a"], arcs=[WeightedArc("a", "zzz", 1.0)])

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(AnalysisError):
            MaxPlusSystem(nodes=["a", "a"], arcs=[])

    def test_unknown_floor_rejected(self):
        with pytest.raises(AnalysisError):
            MaxPlusSystem(nodes=["a"], arcs=[], floors={"b": 1.0})

    def test_apply(self):
        s = chain_system()
        out = s.apply({"a": 1.0, "b": 0.0, "c": 0.0})
        assert out == {"a": 1.0, "b": 4.0, "c": 2.0}

    def test_residual_zero_at_fixpoint(self):
        s = chain_system()
        fix = least_fixpoint(s).values
        assert s.residual(fix) == pytest.approx(0.0)

    def test_prefixed_point(self):
        s = chain_system()
        assert s.is_prefixed_point({"a": 10.0, "b": 20.0, "c": 30.0})
        assert not s.is_prefixed_point({"a": 1.0, "b": 0.0, "c": 0.0})


class TestLeastFixpoint:
    @pytest.mark.parametrize("method", ["jacobi", "gauss-seidel", "event"])
    def test_chain(self, method):
        fix = least_fixpoint(chain_system(), method=method)
        assert fix.values == {"a": 1.0, "b": 4.0, "c": 6.0}

    @pytest.mark.parametrize("method", ["jacobi", "gauss-seidel", "event"])
    def test_negative_cycle_converges(self, method):
        fix = least_fixpoint(negative_loop_system(-1.0), method=method)
        assert fix.values["a"] == pytest.approx(0.0)
        assert fix.values["b"] == pytest.approx(5.0)

    @pytest.mark.parametrize("method", ["jacobi", "gauss-seidel", "event"])
    def test_positive_cycle_diverges(self, method):
        with pytest.raises(DivergentTimingError):
            least_fixpoint(negative_loop_system(+1.0), method=method)

    def test_zero_cycle_converges(self):
        fix = least_fixpoint(negative_loop_system(0.0))
        assert fix.values["b"] == pytest.approx(5.0)

    @pytest.mark.parametrize("kernel", ["dict", "array"])
    def test_parallel_arcs_are_not_divergence(self, kernel):
        # Three parallel arcs improve n0 three times from one source pop,
        # more than |V| = 2 updates with no positive cycle anywhere.
        s = MaxPlusSystem(
            nodes=["n0", "n1"],
            arcs=[
                WeightedArc("n1", "n0", -2.0),
                WeightedArc("n0", "n0", 0.0),
                WeightedArc("n1", "n0", -1.0),
                WeightedArc("n1", "n0", 0.0),
            ],
            floors={"n1": 3.0},
        )
        fix = least_fixpoint(s, method="event", kernel=kernel)
        assert fix.values == {"n0": 3.0, "n1": 3.0}

    def test_frozen_node_not_updated(self):
        s = MaxPlusSystem(
            nodes=["ff", "l"],
            arcs=[WeightedArc("l", "ff", 100.0), WeightedArc("ff", "l", 1.0)],
            floors={"ff": 2.0},
            frozen={"ff"},
        )
        fix = least_fixpoint(s)
        assert fix.values["ff"] == 2.0
        assert fix.values["l"] == 3.0

    def test_unknown_method(self):
        with pytest.raises(AnalysisError):
            least_fixpoint(chain_system(), method="voodoo")


class TestSlide:
    @pytest.mark.parametrize("method", ["jacobi", "gauss-seidel", "event"])
    def test_slide_reaches_fixpoint_from_above(self, method):
        s = chain_system()
        start = {"a": 50.0, "b": 50.0, "c": 50.0}
        out = slide(s, start, method=method)
        assert s.residual(out.values) == pytest.approx(0.0, abs=1e-9)
        # The slide never increases values.
        for node in s.nodes:
            assert out.values[node] <= start[node] + 1e-9

    def test_slide_matches_least_fixpoint_on_chains(self):
        s = chain_system()
        slid = slide(s, {"a": 9.0, "b": 9.0, "c": 9.0})
        least = least_fixpoint(s)
        assert slid.values == pytest.approx(least.values)

    def test_slow_geometric_slide_falls_back(self):
        # A negative self-ish cycle makes the slide decrease by 0.5/sweep;
        # the cap triggers the exact least-fixpoint fallback.
        s = MaxPlusSystem(
            nodes=["a", "b"],
            arcs=[WeightedArc("a", "b", 10.0), WeightedArc("b", "a", -10.5)],
        )
        out = slide(s, {"a": 1000.0, "b": 1010.0}, method="jacobi", max_sweeps=5)
        assert out.values["a"] == pytest.approx(0.0)
        assert out.values["b"] == pytest.approx(10.0)

    def test_frozen_nodes_pinned(self):
        s = MaxPlusSystem(
            nodes=["ff", "l"],
            arcs=[WeightedArc("ff", "l", 1.0)],
            floors={"ff": 4.0},
            frozen={"ff"},
        )
        out = slide(s, {"ff": 99.0, "l": 99.0})
        assert out.values["ff"] == 4.0
        assert out.values["l"] == 5.0


class TestCycles:
    def test_find_positive_cycle(self):
        # Listed from the tail of its lowest arc, a -> b.
        assert find_positive_cycle(negative_loop_system(1.0)) == ["a", "b"]

    def test_no_positive_cycle(self):
        assert find_positive_cycle(negative_loop_system(-1.0)) is None
        assert find_positive_cycle(chain_system()) is None

    def test_frozen_breaks_cycle(self):
        s = MaxPlusSystem(
            nodes=["a", "b"],
            arcs=[WeightedArc("a", "b", 5.0), WeightedArc("b", "a", 5.0)],
            frozen={"a"},
        )
        assert find_positive_cycle(s) is None
        least_fixpoint(s)  # converges


@st.composite
def random_system(draw):
    n = draw(st.integers(2, 6))
    nodes = [f"n{i}" for i in range(n)]
    arcs = []
    n_arcs = draw(st.integers(1, 10))
    for _ in range(n_arcs):
        a = draw(st.sampled_from(nodes))
        b = draw(st.sampled_from(nodes))
        w = draw(st.integers(-20, 6))
        arcs.append(WeightedArc(a, b, float(w)))
    return MaxPlusSystem(nodes=nodes, arcs=arcs)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_system())
    def test_methods_agree_or_all_diverge(self, system):
        outcomes = {}
        for method in ("jacobi", "gauss-seidel", "event"):
            try:
                outcomes[method] = least_fixpoint(system, method=method).values
            except DivergentTimingError:
                outcomes[method] = "diverged"
        ref = outcomes["jacobi"]
        for method, value in outcomes.items():
            if ref == "diverged":
                assert value == "diverged"
            else:
                assert value != "diverged"
                assert value == pytest.approx(ref, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(random_system())
    def test_divergence_iff_positive_cycle(self, system):
        has_cycle = find_positive_cycle(system) is not None
        try:
            least_fixpoint(system)
            diverged = False
        except DivergentTimingError:
            diverged = True
        assert diverged == has_cycle

    @settings(max_examples=40, deadline=None)
    @given(random_system(), st.integers(0, 100))
    def test_slide_from_pre_fixed_point_reaches_fixpoint(self, system, bump):
        if find_positive_cycle(system) is not None:
            return
        base = least_fixpoint(system).values
        start = {k: v + bump for k, v in base.items()}
        out = slide(system, start)
        assert system.residual(out.values) <= 1e-6
