"""Ablation: dense simplex vs revised simplex vs scipy vs cycle solver.

The paper's initial implementation used "a dense-matrix LP solver which
implements the standard simplex algorithm"; this ablation checks that the
choice of LP backend changes runtimes but never results.  Timing and
iteration counts come from the solver instrumentation itself
(``LPResult.solve_seconds`` / ``LPResult.iterations``, surfaced through
``OptimalClockResult.extra``) uniformly for all backends -- the scipy
path reports HiGHS's own ``nit`` counter, the cycle path its ratio-search
jump count -- rather than external stopwatches.

The backend list is driven from the registry
(:func:`repro.lp.backends.available_backends`), excluding ``+check``
variants (they solve twice by design) and ``"revised"``, a second name
for ``"sparse"``.

``test_cycle_speedup_at_scale`` is the headline perf claim of the
graph-native backend (docs/CYCLE.md): on generated multi-loop designs the
parametric critical-cycle search beats the revised simplex by >=10x at
1024 latches while reproducing its optimum to 1e-9.  Those rows disable
the compact tie-break pass (``compact=False``) so the measured ``lp_solve``
stage is the pure minimum-Tc solve for both backends.

Set ``REPRO_BENCH_QUICK=1`` (the CI smoke job does) for a reduced grid:
the scale test then runs a 256-latch instance instead of 1024+ (the
1024-latch revised-simplex solve alone takes several seconds).
"""

import os

import pytest

from repro.circuit.generate import random_multiloop_circuit
from repro.core.mlp import MLPOptions, minimize_cycle_time
from repro.core.reporting import format_comparison
from repro.designs import example1, example2, fig1_circuit, gaas_datapath
from repro.lp.backends import available_backends

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: Every registered single-solve backend ("+check" variants solve twice).
BACKENDS = tuple(
    b for b in available_backends() if "+" not in b and b != "revised"
)

#: Backends whose iteration counter is a simplex pivot / HiGHS nit count.
#: The cycle backend reports ratio-search jumps instead, which can
#: legitimately be 1 on small designs.
PIVOT_BACKENDS = tuple(b for b in BACKENDS if b != "cycle")

CIRCUITS = [
    ("example1 @80", example1(80.0)),
    ("example2", example2()),
    ("fig1", fig1_circuit()),
    ("gaas", gaas_datapath()),
]

#: (latches, also run the revised simplex?) -- larger sizes are cycle-only
#: scaling points (the sparse LP at 2k-10k latches is bench_scaling's).
SCALE_POINTS = [(256, True)] if QUICK else [(1024, True), (4096, False), (8192, False)]


def _warm_up():
    """One untimed solve per backend on a design outside the table.

    First-use imports and compilations would otherwise be charged to the
    first design's ``lp ms`` column.
    """
    circuit = random_multiloop_circuit(8, n_extra_arcs=4, k=2, seed=1)
    for backend in BACKENDS:
        minimize_cycle_time(circuit, mlp=MLPOptions(backend=backend, verify=False))


def run_ablation():
    _warm_up()
    rows = []
    for name, circuit in CIRCUITS:
        row = {"circuit": name}
        for backend in BACKENDS:
            result = minimize_cycle_time(
                circuit, mlp=MLPOptions(backend=backend, verify=False)
            )
            row[f"Tc ({backend})"] = result.period
            row[f"lp ms ({backend})"] = round(
                result.extra["stages"]["lp_solve"] * 1000, 2
            )
            row[f"iters ({backend})"] = result.extra["lp_iterations"]
            if backend == "cycle":
                # The graph path must actually be taken (no LP fallback)
                # on every bundled paper design.
                assert result.extra["cycle"]["used"] is True
        rows.append(row)
    return rows


def run_scale():
    rows = []
    for n, with_revised in SCALE_POINTS:
        circuit = random_multiloop_circuit(n, n_extra_arcs=n // 2, k=2, seed=n)
        row = {"latches": n, "arcs": len(circuit.arcs)}
        for backend in ("cycle", "revised") if with_revised else ("cycle",):
            result = minimize_cycle_time(
                circuit,
                mlp=MLPOptions(backend=backend, verify=False, compact=False),
            )
            row[f"Tc ({backend})"] = result.period
            row[f"lp s ({backend})"] = round(
                result.extra["stages"]["lp_solve"], 4
            )
            row[f"iters ({backend})"] = result.extra["lp_iterations"]
            if backend == "cycle":
                assert result.extra["cycle"]["used"] is True
        if with_revised:
            row["speedup"] = round(row["lp s (revised)"] / row["lp s (cycle)"], 1)
        rows.append(row)
    return rows


def test_backends_agree(benchmark, emit):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    for row in rows:
        for backend in BACKENDS:
            assert row[f"Tc ({backend})"] == pytest.approx(
                row["Tc (simplex)"], abs=1e-6
            )
        # The cycle solver must match the LP optimum far tighter than the
        # generic cross-backend tolerance (its certification contract).
        assert row["Tc (cycle)"] == pytest.approx(
            row["Tc (simplex)"], abs=1e-9
        )
        for backend in PIVOT_BACKENDS:
            assert row[f"iters ({backend})"] > 0

    emit(
        "solver_ablation",
        format_comparison(
            rows,
            ["circuit"]
            + [f"Tc ({b})" for b in BACKENDS]
            + [f"lp ms ({b})" for b in BACKENDS]
            + [f"iters ({b})" for b in BACKENDS],
            "LP backend ablation: identical optima, different speed",
        ),
    )


def test_cycle_speedup_at_scale(benchmark, emit):
    rows = benchmark.pedantic(run_scale, rounds=1, iterations=1)

    for row in rows:
        if "Tc (revised)" in row:
            scale = max(1.0, abs(row["Tc (revised)"]))
            assert row["Tc (cycle)"] == pytest.approx(
                row["Tc (revised)"], abs=1e-9 * scale
            )
            # The headline claim: >=10x over the revised simplex.
            assert row["speedup"] >= 10.0

    emit(
        "cycle_scaling",
        format_comparison(
            rows,
            [
                "latches",
                "arcs",
                "Tc (cycle)",
                "Tc (revised)",
                "lp s (cycle)",
                "lp s (revised)",
                "iters (cycle)",
                "iters (revised)",
                "speedup",
            ],
            "Graph-native cycle solver vs revised simplex at scale",
        ),
    )
