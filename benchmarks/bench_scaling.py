"""Section IV complexity claims: constraint count and runtime scaling.

The paper argues the number of LP constraints is bounded by
``4k + (F + 1) l`` -- linear in the number of latches -- and reports
seconds-scale runtimes for the 91-constraint GaAs model on a DECStation
3100.  This benchmark sweeps the circuit size, asserts the linear
constraint growth, and times MLP end to end.  A last row times a
divergent ``analyze`` and re-checks the latch loop it names.

The per-backend columns are driven from the LP backend registry
(:func:`repro.lp.backends.available_backends`), so a newly registered
backend shows up here without edits; ``+check`` variants are excluded
because they deliberately solve twice.

Set ``REPRO_BENCH_QUICK=1`` (the CI smoke job does) for a reduced grid.
"""

import os
import time

import pytest

from repro.circuit.generate import random_multiloop_circuit
from repro.core.analysis import analyze
from repro.core.constraints import build_maxplus_system, build_program
from repro.core.mlp import MLPOptions, minimize_cycle_time
from repro.core.reporting import format_comparison
from repro.designs.generators import banked_array, pipeline
from repro.lp.backends import available_backends
from repro.lp.sparse import DENSE_STATS
from repro.maxplus.fixpoint import least_fixpoint

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SIZES = [8, 16] if QUICK else [8, 16, 32, 64]

#: Every registered single-solve backend; "+check" variants solve the
#: same program twice by design and would only duplicate columns.
BACKENDS = [b for b in available_backends() if "+" not in b]


def _fixpoint_ms(system, kernel):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        least_fixpoint(system, method="jacobi", kernel=kernel)
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e3, 3)


def measure():
    rows = []
    for n in SIZES:
        circuit = random_multiloop_circuit(n, n_extra_arcs=n // 2, k=2, seed=n)
        smo = build_program(circuit)
        start = time.perf_counter()
        result = minimize_cycle_time(circuit, mlp=MLPOptions(verify=False))
        elapsed = time.perf_counter() - start
        row = {
            "latches": n,
            "arcs": len(circuit.arcs),
            "constraints": smo.explicit_constraint_count,
            "bound 4k+(F+1)l": 4 * circuit.k + (circuit.max_fanin() + 1) * n,
            "Tc": result.period,
            "seconds": round(elapsed, 4),
        }
        for backend in BACKENDS:
            fast = MLPOptions(backend=backend, verify=False)
            out = minimize_cycle_time(circuit, mlp=fast)
            row[f"Tc ({backend})"] = out.period
            row[f"lp ms ({backend})"] = round(
                out.extra["stages"]["lp_solve"] * 1000, 3
            )
        # Fixpoint kernel comparison at the optimal schedule (the slide's
        # workload; see bench_fixpoint_kernels.py for the full sweep).
        system = build_maxplus_system(circuit, result.schedule)
        row["fix dict ms"] = _fixpoint_ms(system, "dict")
        row["fix array ms"] = _fixpoint_ms(system, "array")
        rows.append(row)
    return rows


def test_constraint_count_scales_linearly(benchmark, emit):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    for row in rows:
        # The paper's bound counts the same explicit rows we generate
        # (setup + propagation + clock rows); check it holds.
        assert row["constraints"] <= row["bound 4k+(F+1)l"] + 4 * 2 + 1
        # Every registered backend reproduces the same optimum.
        for backend in BACKENDS:
            assert row[f"Tc ({backend})"] == pytest.approx(
                row["Tc"], abs=1e-6
            )
    # Linearity: constraints per latch stays (nearly) constant.
    ratios = [r["constraints"] / r["latches"] for r in rows]
    assert max(ratios) / min(ratios) < 1.6

    # "its execution time ... was hardly noticeable (on the order of a few
    # seconds)" for 91 constraints in 1990 -- the largest instance here has
    # several hundred rows and must stay well under that today.
    assert rows[-1]["seconds"] < 10.0

    emit(
        "scaling",
        format_comparison(
            rows,
            [
                "latches",
                "arcs",
                "constraints",
                "bound 4k+(F+1)l",
                "Tc",
                "seconds",
            ]
            + [f"lp ms ({b})" for b in BACKENDS]
            + ["fix dict ms", "fix array ms"],
            "Constraint-count and runtime scaling (Section IV claims)",
        ),
    )


# ---------------------------------------------------------------------------
# Sparse-LP scaling grid: structured generator families to 10^4+ latches.
#
# The random-multiloop sweep above tops out at a few hundred constraints;
# this grid drives the CSR/CSC substrate where it matters.  Every point
# solves the same circuit with the sparse revised simplex and with the
# graph-native critical-cycle backend and demands bit-tight agreement.
#
# The full grid ends at a 10,242-latch banked array whose sparse solve
# runs for minutes (the pivot count, not memory, is the cost: the LP is
# massively degenerate, and degeneracy grows with chain *depth* -- a
# bank-heavy 80x128 array prices far fewer stalled pivots than a
# depth-heavy 16x640 one of identical size); the QUICK grid stops at a
# 2,050-latch banked array that solves in seconds and is what the CI
# smoke job runs.
# ---------------------------------------------------------------------------

LARGE_GRID = (
    [("pipeline", 32, 8), ("banked", 8, 128), ("banked", 8, 256)]
    if QUICK
    else [
        ("pipeline", 32, 8),
        ("banked", 8, 128),
        ("pipeline", 64, 32),
        ("banked", 8, 512),
        ("banked", 80, 128),
    ]
)


def _generator_circuit(kind, a, b):
    return pipeline(a, b) if kind == "pipeline" else banked_array(a, b)


def measure_sparse():
    rows = []
    # verify/compact off: time the raw solver, not the a-posteriori
    # simulation or the second compacted solve.
    fast = dict(verify=False, compact=False)
    for kind, a, b in LARGE_GRID:
        circuit = _generator_circuit(kind, a, b)
        smo = build_program(circuit)
        dense_before = DENSE_STATS.count

        t0 = time.perf_counter()
        sparse = minimize_cycle_time(
            circuit, mlp=MLPOptions(backend="sparse", **fast)
        )
        sparse_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        cycle = minimize_cycle_time(
            circuit, mlp=MLPOptions(backend="cycle", **fast)
        )
        cycle_s = time.perf_counter() - t0

        rows.append(
            {
                "design": f"{kind} {a}x{b}",
                "latches": len(circuit.latches),
                "arcs": len(circuit.arcs),
                "constraints": smo.explicit_constraint_count,
                "Tc (sparse)": sparse.period,
                "Tc (cycle)": cycle.period,
                "|diff|": abs(sparse.period - cycle.period),
                "pivots": sparse.lp_result.iterations,
                "sparse s": round(sparse_s, 2),
                "cycle s": round(cycle_s, 2),
                "dense views": DENSE_STATS.count - dense_before,
            }
        )
    return rows


def test_sparse_scaling_grid(benchmark, emit):
    rows = benchmark.pedantic(measure_sparse, rounds=1, iterations=1)

    for row in rows:
        # The tentpole acceptance bar: sparse LP and the critical-cycle
        # backend agree on the optimum to 1e-9 at every size.
        assert row["|diff|"] <= 1e-9, row
        # O(nnz) all the way down: no dense (m, n) materialization
        # anywhere on the sparse or cycle path.
        assert row["dense views"] == 0, row
        # Constraint growth stays linear in latches, as for the random
        # sweep above.
        assert row["constraints"] <= 6 * row["latches"] + 12

    emit(
        "scaling_sparse",
        format_comparison(
            rows,
            [
                "design",
                "latches",
                "arcs",
                "constraints",
                "Tc (sparse)",
                "Tc (cycle)",
                "pivots",
                "sparse s",
                "cycle s",
            ],
            "Sparse LP vs critical cycle on generator families",
        ),
    )


# ---------------------------------------------------------------------------
# Divergent analysis: at 0.8x the optimal schedule a latch loop of the
# banked array has positive max-plus weight, so the least fixpoint does
# not exist.  The event worklist detects that, and the cycle engine's
# vectorized Bellman-Ford names the loop.  QUICK runs the 2,562-latch
# array, the full run the 10,242-latch one.
# ---------------------------------------------------------------------------

DIVERGENT_ARRAY = (80, 32) if QUICK else (80, 128)


def measure_divergent():
    banks, depth = DIVERGENT_ARRAY
    circuit = banked_array(banks, depth)
    schedule = minimize_cycle_time(circuit).schedule.scaled(0.8)
    t0 = time.perf_counter()
    report = analyze(circuit, schedule)
    seconds = time.perf_counter() - t0
    # Re-sum the named loop: "... dependency cycle A -> B -> A; ..."
    path = report.divergent_cycle.split("dependency cycle ")[1].split(";")[0]
    names = path.split(" -> ")
    heaviest = {}
    for arc in build_maxplus_system(circuit, schedule).arcs:
        pair = (arc.src, arc.dst)
        heaviest[pair] = max(heaviest.get(pair, arc.weight), arc.weight)
    return {
        "design": f"banked {banks}x{depth}",
        "latches": len(circuit.latches),
        "feasible": report.feasible,
        "cycle arcs": len(names) - 1,
        "cycle weight": sum(heaviest[p] for p in zip(names, names[1:])),
        "seconds": round(seconds, 3),
    }


def test_divergent_analyze(benchmark, emit):
    row = benchmark.pedantic(measure_divergent, rounds=1, iterations=1)

    assert row["feasible"] is False
    assert row["cycle weight"] > 0, row

    emit(
        "scaling_divergent",
        format_comparison(
            [row],
            ["design", "latches", "cycle arcs", "cycle weight", "seconds"],
            "Divergent analyze at 0.8x the optimal schedule",
        ),
    )
