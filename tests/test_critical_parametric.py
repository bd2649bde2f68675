"""Unit tests for critical-segment extraction and parametric sweeps."""

import pytest

from repro.core.critical import critical_segments
from repro.core.mlp import minimize_cycle_time
from repro.core.parametric import exact_sweep, sweep, sweep_delay
from repro.designs import example1
from repro.errors import LPError, ReproError
from repro.lp.result import LPResult, LPStatus


class TestCriticalSegments:
    def test_saturated_case_critical_arcs(self):
        # At Delta_41 = 120 the L4->L1 block dominates (slope-1 region):
        # its propagation constraint must be binding.
        g = example1(120.0)
        result = minimize_cycle_time(g)
        report = critical_segments(result.smo, result.lp_result)
        arcs = {(a.src, a.dst) for a in report.arcs}
        assert ("L4", "L1") in arcs

    def test_segments_are_chains(self):
        g = example1(80.0)
        result = minimize_cycle_time(g)
        report = critical_segments(result.smo, result.lp_result)
        assert report.segments
        for seg in report.segments:
            assert len(seg) >= 2

    def test_multiple_disjoint_segments_possible(self):
        # "Instead of a single critical path, the circuit has several
        # critical combinational delay segments which may be disjoint."
        g = example1(80.0)
        result = minimize_cycle_time(g)
        report = critical_segments(result.smo, result.lp_result)
        covered = {n for seg in report.segments for n in seg}
        assert len(covered) >= 3

    def test_binding_setups_reported(self):
        g = example1(120.0)
        result = minimize_cycle_time(g)
        report = critical_segments(result.smo, result.lp_result)
        assert isinstance(report.critical_setups, list)

    def test_str_render(self):
        g = example1(100.0)
        result = minimize_cycle_time(g)
        text = str(critical_segments(result.smo, result.lp_result))
        assert "critical segments" in text

    def test_failed_result_rejected(self):
        g = example1(100.0)
        result = minimize_cycle_time(g)
        bad = LPResult(status=LPStatus.INFEASIBLE)
        with pytest.raises(LPError):
            critical_segments(result.smo, bad)


class TestSweepMachinery:
    def test_segment_fitting(self):
        # max(4, x) has a kink at 4: slopes 0 then 1.
        result = sweep(lambda x: max(4.0, x), grid=[0, 1, 2, 3, 4, 5, 6, 7, 8])
        assert result.slopes == pytest.approx([0.0, 1.0])
        assert result.breakpoints == pytest.approx([4.0])

    def test_period_at_interpolates(self):
        result = sweep(lambda x: 2 * x + 1, grid=[0.0, 1.0, 2.0])
        assert result.period_at(1.5) == pytest.approx(4.0)

    def test_period_at_outside_range(self):
        result = sweep(lambda x: x, grid=[0.0, 1.0])
        with pytest.raises(ReproError):
            result.period_at(5.0)

    def test_needs_two_points(self):
        with pytest.raises(ReproError):
            sweep(lambda x: x, grid=[1.0])

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(ReproError):
            sweep(lambda x: x, grid=[0.0, 2.0, 1.0])

    def test_refine_breakpoint(self):
        # The exact sweep places the kink of max(4, x) where its lines meet.
        result = exact_sweep(
            lambda x: (max(4.0, x), 0.0 if x < 4.0 else 1.0), 0.0, 10.0
        )
        assert result.breakpoints == [4.0]


class TestDualsPredictSweepSlopes:
    """LP duality meets Fig. 7: the shadow price of the swept arc's
    propagation constraint equals the local slope of Tc(Delta_41)."""

    @pytest.mark.parametrize(
        "d41,expected_slope",
        [(10.0, 0.0), (60.0, 0.5), (120.0, 1.0)],
    )
    def test_l2r_dual_equals_curve_slope(self, d41, expected_slope):
        g = example1(d41)
        result = minimize_cycle_time(g)
        # The rhs of L2R[L4->L1] is Delta_DQ4 + Delta_41, so dTc/dDelta_41
        # is that constraint's shadow price.
        dual = result.lp_tc_result.duals["L2R[L4->L1]"]
        assert dual == pytest.approx(expected_slope, abs=1e-6)

    def test_dual_matches_finite_difference(self):
        eps = 1e-4
        lo = minimize_cycle_time(example1(60.0 - eps)).period
        hi = minimize_cycle_time(example1(60.0 + eps)).period
        measured = (hi - lo) / (2 * eps)
        dual = minimize_cycle_time(example1(60.0)).lp_tc_result.duals[
            "L2R[L4->L1]"
        ]
        assert dual == pytest.approx(measured, abs=1e-4)


class TestSweepDelay:
    def test_fig7_points(self):
        result = sweep_delay(
            example1(), "L4", "L1", grid=[0.0, 40.0, 80.0, 120.0]
        )
        assert result.periods == pytest.approx([80.0, 90.0, 110.0, 140.0])

    def test_convexity(self):
        # LP theory: the optimal value is convex in a rhs parameter.
        result = sweep_delay(
            example1(), "L4", "L1", grid=[float(x) for x in range(0, 141, 10)]
        )
        slopes = [
            (b.period - a.period) / (b.parameter - a.parameter)
            for a, b in zip(result.points, result.points[1:])
        ]
        assert all(s2 >= s1 - 1e-9 for s1, s2 in zip(slopes, slopes[1:]))
