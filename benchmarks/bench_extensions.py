"""Ablation benches for the extensions DESIGN.md calls out.

Not paper figures -- these quantify the design choices added on top of
the paper's minimal constraint set:

* exact sweep vs. grid sweep (solve counts and agreement);
* the cost-of-robustness curve Tc*(skew bound);
* the slack-vs-period tuning curve.
"""

import pytest

from repro.clocking.skew import SkewBound
from repro.core.constraints import ConstraintOptions
from repro.core.mlp import MLPOptions, minimize_cycle_time
from repro.core.parametric import delay_evaluator, exact_sweep, sweep_delay
from repro.core.reporting import format_comparison
from repro.core.tuning import maximize_slack
from repro.designs.example1 import example1

FAST = MLPOptions(verify=False)


def test_exact_sweep_vs_grid(benchmark, emit):
    evaluate = delay_evaluator(example1(), "L4", "L1")
    exact = benchmark(exact_sweep, evaluate, 0.0, 140.0)
    # Count the solves of one call (the benchmark above runs many rounds).
    solves = []

    def counted(x: float) -> tuple[float, float]:
        solves.append(x)
        return evaluate(x)

    assert exact_sweep(counted, 0.0, 140.0).segments == exact.segments
    error = max(abs(b - t) for b, t in zip(exact.breakpoints, (20.0, 100.0)))

    grid = sweep_delay(
        example1(), "L4", "L1", grid=[float(x) for x in range(0, 141, 5)]
    )
    assert exact.breakpoints == pytest.approx([20.0, 100.0], abs=1e-9)
    assert grid.breakpoints == pytest.approx([20.0, 100.0], abs=5.0)
    for x in (0.0, 40.0, 80.0, 120.0):
        assert exact.period_at(x) == pytest.approx(grid.period_at(x), abs=1e-6)

    emit(
        "exact_sweep_ablation",
        format_comparison(
            [
                {
                    "method": "exact (sandwich)",
                    "LP solves (per run)": len(solves),
                    "breakpoint error": f"{error:.1e}",
                },
                {
                    "method": "29-point grid",
                    "LP solves (per run)": 29,
                    "breakpoint error": "grid step / 2",
                },
            ],
            ["method", "LP solves (per run)", "breakpoint error"],
            "Fig. 7 reconstruction: exact vs grid",
        ),
    )


def test_skew_cost_curve(benchmark, emit):
    bounds = [0.0, 1.0, 2.0, 3.0, 5.0, 8.0]

    def run():
        rows = []
        for s in bounds:
            g = example1(80.0)
            options = ConstraintOptions(
                skew={p: SkewBound(s, s) for p in g.phase_names}
            )
            rows.append(
                {"skew +/- (ns)": s,
                 "Tc": minimize_cycle_time(g, options, FAST).period}
            )
        return rows

    rows = benchmark(run)
    periods = [r["Tc"] for r in rows]
    # Robustness is monotone in price and never below the nominal optimum.
    assert periods[0] == pytest.approx(110.0)
    assert all(b >= a - 1e-9 for a, b in zip(periods, periods[1:]))
    emit(
        "skew_cost",
        format_comparison(
            rows,
            ["skew +/- (ns)", "Tc"],
            "Cost of worst-case skew robustness (example 1, Delta_41 = 80)",
        ),
    )


def test_tuning_curve(benchmark, emit):
    periods = [110.0, 115.0, 120.0, 130.0, 150.0]

    def run():
        return [
            {"Tc": p, "best uniform slack": maximize_slack(example1(80.0), p).slack}
            for p in periods
        ]

    rows = benchmark(run)
    slacks = [r["best uniform slack"] for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(slacks, slacks[1:]))
    assert slacks[0] >= 0.0  # the optimum period is (just) schedulable
    emit(
        "tuning_curve",
        format_comparison(
            rows,
            ["Tc", "best uniform slack"],
            "Clock tuning: achievable setup margin vs period (example 1)",
        ),
    )
