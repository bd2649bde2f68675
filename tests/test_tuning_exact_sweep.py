"""Tests for fixed-period clock tuning and the exact parametric sweep."""

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.builder import CircuitBuilder
from repro.circuit.generate import random_multiloop_circuit
from repro.core.analysis import analyze
from repro.core.mlp import minimize_cycle_time
from repro.core.parametric import exact_sweep, exact_sweep_delay
from repro.core.tuning import maximize_slack
from repro.designs import example1
from repro.errors import ReproError
from repro.lang.parser import parse_circuit


class TestMaximizeSlack:
    def test_slack_zero_at_a_setup_bound_optimum(self):
        # At Delta_41 = 0 the 80 ns optimum is pinned by a setup chain
        # (block Lc + two latch delays), so the best uniform margin is 0.
        g = example1(0.0)
        tuned = maximize_slack(g, 80.0)
        assert tuned.slack == pytest.approx(0.0, abs=1e-7)
        assert tuned.meets_timing

    def test_slack_positive_at_a_loop_bound_optimum(self, ex1):
        # At Delta_41 = 80 the 110 ns optimum is pinned by the feedback
        # loop, not by setup: the setup rows retain genuine margin.
        tuned = maximize_slack(ex1, 110.0)
        assert tuned.slack > 0

    def test_positive_slack_above_optimum(self, ex1):
        tuned = maximize_slack(ex1, 130.0)
        assert tuned.slack > 0
        assert analyze(ex1, tuned.schedule).worst_slack >= tuned.slack - 1e-6

    def test_negative_slack_when_setup_bound(self):
        # Tc = 75 < the 80 ns setup-driven floor of example1(0): the best
        # achievable margin is exactly -5 ns (the single-stage shortfall).
        tuned = maximize_slack(example1(0.0), 75.0)
        assert tuned.slack == pytest.approx(-5.0, abs=1e-6)
        assert not tuned.meets_timing

    def test_structurally_impossible_period_raises(self, ex1):
        # Below the loop bound no setup sacrifice helps: sigma does not
        # relax the propagation constraints.
        from repro.errors import InfeasibleError

        with pytest.raises(InfeasibleError):
            maximize_slack(ex1, 100.0)  # loop average bound is 110

    def test_slack_grows_with_period(self, ex1):
        slacks = [maximize_slack(ex1, p).slack for p in (110.0, 120.0, 140.0)]
        assert slacks[0] < slacks[1] < slacks[2]

    def test_tuned_beats_symmetric_shape(self, ex1):
        # At Tc = 120 the symmetric clock fails outright (the borrowing
        # baseline showed its floor is 136 ns), yet tuning finds margin.
        from repro.clocking.library import two_phase_clock

        assert not analyze(ex1, two_phase_clock(120.0)).feasible
        assert maximize_slack(ex1, 120.0).slack > 0

    def test_slack_value_is_exactly_achievable(self, ex1):
        tuned = maximize_slack(ex1, 130.0)
        report = analyze(ex1, tuned.schedule)
        assert report.worst_slack == pytest.approx(tuned.slack, abs=1e-6)

    def test_no_setup_rows_gives_infinite_slack(self):
        b = CircuitBuilder(["phi1", "phi2"])
        b.flipflop("F", phase="phi1", setup=0.0)
        b.latch("L", phase="phi2", setup=0.0)
        b.path("F", "L", 1.0)
        # The latch DOES have a setup row (setup 0 still generates L1), so
        # build a truly row-free case: a lone flip-flop with no fanin.
        b2 = CircuitBuilder(["phi1"])
        b2.flipflop("F", phase="phi1")
        tuned = maximize_slack(b2.build(), 10.0)
        assert tuned.slack == float("inf")

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(3, 7),
        seed=st.integers(0, 9999),
        stretch=st.floats(1.01, 1.8),
    )
    def test_random_circuits_slack_consistency(self, n, seed, stretch):
        g = random_multiloop_circuit(n, n_extra_arcs=2, k=2, seed=seed)
        opt = minimize_cycle_time(g).period
        tuned = maximize_slack(g, opt * stretch)
        assert tuned.slack >= -1e-6
        assert analyze(g, tuned.schedule).worst_slack >= tuned.slack - 1e-6


def _lines_oracle(lines, prefer_steep=False):
    """``x -> (max_i c_i + g_i x, slope of a maximizing line)``.

    Ties at a kink go to the shallowest line, or with ``prefer_steep`` to
    the steepest: either is a subgradient there.
    """

    def evaluate(x):
        value = max(c + g * x for g, c in lines)
        ties = [g for g, c in lines if c + g * x == value]
        return value, max(ties) if prefer_steep else min(ties)

    return evaluate


def _counting(evaluate):
    calls = []

    def counted(x):
        calls.append(x)
        return evaluate(x)

    return counted, calls


class TestExactSweep:
    def test_recovers_max_function(self):
        result = exact_sweep(
            lambda x: (max(4.0, x), 0.0 if x < 4.0 else 1.0), 0.0, 10.0
        )
        assert len(result.segments) == 2
        assert result.breakpoints == [4.0]
        assert result.slopes == [0.0, 1.0]

    def test_single_segment(self):
        evaluate, calls = _counting(lambda x: (3 * x + 1, 3.0))
        result = exact_sweep(evaluate, 0.0, 5.0)
        assert len(result.segments) == 1
        assert result.slopes == [3.0]
        assert calls == [0.0, 5.0]

    def test_three_segments(self):
        lines = [(0.0, 8.0), (0.5, 7.0), (1.0, 2.0)]  # max(8, (14+x)/2, 2+x)
        evaluate, calls = _counting(_lines_oracle(lines))
        result = exact_sweep(evaluate, 0.0, 14.0)
        assert result.breakpoints == pytest.approx([2.0, 10.0], abs=1e-12)
        assert result.slopes == [0.0, 0.5, 1.0]
        assert len(calls) == 5  # 2s - 1 with both end lines on the curve

    def test_segment_sampled_exactly_between_its_kinks_is_kept(self):
        # The end lines of [0, 16] meet at x = 6, inside the middle
        # segment: its only sample lies strictly between its kinks.
        evaluate, calls = _counting(
            _lines_oracle([(0.0, 8.0), (0.5, 7.0), (1.0, 2.0)])
        )
        result = exact_sweep(evaluate, 0.0, 16.0)
        assert 6.0 in calls
        assert result.breakpoints == pytest.approx([2.0, 10.0], abs=1e-12)
        assert result.slopes == [0.0, 0.5, 1.0]

    def test_no_phantom_chord_segment(self):
        # Chord bisection once printed a third segment [20.437998,
        # 20.438007] of slope 0.0269 -- not a cycle slope k/B of this
        # design -- and later a blended slope 0.0344827587 for 1/29.
        path = pathlib.Path(__file__).parent / "data" / "pipeline64x2_seed7.lcd"
        graph = parse_circuit(path.read_text(encoding="utf-8")).to_graph()
        result = exact_sweep_delay(graph, "P31_0", "P32_0", 17.795, 53.385)
        assert len(result.segments) == 2
        assert result.breakpoints == pytest.approx([20.438], abs=1e-9)
        assert result.slopes == pytest.approx([0.0, 1.0 / 29.0], abs=1e-12)

    def test_bad_range_rejected(self):
        with pytest.raises(ReproError):
            exact_sweep(lambda x: (x, 1.0), 5.0, 5.0)

    def test_fig7_breakpoints_to_high_precision(self):
        result = exact_sweep_delay(example1(), "L4", "L1", 0.0, 140.0)
        assert result.breakpoints == pytest.approx([20.0, 100.0], abs=1e-9)
        assert result.slopes == [0.0, 0.5, 1.0]
        # Interpolation reproduces the published operating points.
        assert result.period_at(80.0) == pytest.approx(110.0, abs=1e-6)
        assert result.period_at(120.0) == pytest.approx(140.0, abs=1e-6)

    def test_kink_at_the_range_end_is_no_segment(self):
        # At Delta_41 = 100 the Tc solve's dual is the left slope 0.5, so
        # the lines at 100 and 140 meet at 100 itself.
        result = exact_sweep_delay(example1(), "L4", "L1", 100.0, 140.0)
        assert [(s.start, s.end) for s in result.segments] == [(100.0, 140.0)]
        assert result.slopes == [1.0]
        assert result.breakpoints == []

    def test_fig7_costs_five_solves(self, monkeypatch):
        import repro.core.parametric as parametric

        calls = []
        solve = parametric.minimize_cycle_time

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(parametric, "minimize_cycle_time", counted)
        exact_sweep_delay(example1(), "L4", "L1", 0.0, 140.0)
        assert len(calls) == 5

    def test_exact_sweep_never_evaluates_a_point_twice(self):
        from repro.core.parametric import delay_evaluator

        evaluate, calls = _counting(delay_evaluator(example1(), "L4", "L1"))
        exact_sweep(evaluate, 50.0, 140.0)
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize(
        "evaluate",
        [
            # Negated slopes: the end lines cross the curve.
            lambda x: (max(4.0, x), -1.0 if x >= 4.0 else 0.0),
            # |x - 5| with half its slopes: the curve dips below the lines.
            lambda x: (abs(x - 5.0), 0.5 if x > 5.0 else -0.5),
        ],
    )
    def test_wrong_slope_raises(self, evaluate):
        with pytest.raises(ReproError, match="support|subgradient"):
            exact_sweep(evaluate, 0.0, 10.0)

    @settings(max_examples=200, deadline=None)
    @given(
        slopes=st.lists(
            st.integers(-6, 6), min_size=1, max_size=6, unique=True
        ).map(sorted),
        gaps=st.lists(st.integers(1, 9), min_size=5, max_size=5),
        base=st.integers(-20, 20),
        c0=st.integers(-50, 50),
        lo_at_kink=st.booleans(),
        hi_at_kink=st.booleans(),
        prefer_steep=st.booleans(),
    )
    def test_random_convex_maxima(
        self, slopes, gaps, base, c0, lo_at_kink, hi_at_kink, prefer_steep
    ):
        # Segment i of the curve follows the line slopes[i]; consecutive
        # lines meet at integer kinks, so every value is an exact integer.
        kinks = [base]
        for gap in gaps[: len(slopes) - 2]:
            kinks.append(kinks[-1] + gap)
        kinks = kinks[: len(slopes) - 1]
        lines = [(float(slopes[0]), float(c0))]
        for g, x in zip(slopes[1:], kinks):
            g0, c = lines[-1]
            lines.append((float(g), c + (g0 - g) * x))
        inner = kinks
        lo, hi = float(base - 3), float((kinks[-1] if kinks else base) + 4)
        if lo_at_kink and kinks:
            lo, inner, lines_in = float(kinks[0]), kinks[1:], lines[1:]
        else:
            lines_in = lines
        if hi_at_kink and inner:
            hi, inner, lines_in = float(inner[-1]), inner[:-1], lines_in[:-1]
        evaluate, calls = _counting(_lines_oracle(lines, prefer_steep))
        result = exact_sweep(evaluate, lo, hi)
        s = len(lines_in)
        assert result.slopes == [g for g, _ in lines_in]
        assert result.breakpoints == pytest.approx(
            [float(x) for x in inner], abs=1e-9
        )
        assert result.segments[0].start == lo
        assert result.segments[-1].end == hi
        assert len(calls) <= 2 * s + 1

    def test_exact_matches_grid_sweep(self):
        from repro.core.parametric import sweep_delay

        grid = sweep_delay(
            example1(), "L4", "L1", grid=[float(x) for x in range(0, 141, 20)]
        )
        exact = exact_sweep_delay(example1(), "L4", "L1", 0.0, 140.0)
        for x in range(0, 141, 20):
            assert exact.period_at(float(x)) == pytest.approx(
                grid.period_at(float(x)), abs=1e-6
            )
