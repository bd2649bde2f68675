"""The two CLI workloads: ``design_cli`` and ``lint_cli``.

Each is a fixed *pass* of ``repro`` invocations, one child process per
invocation, run sequentially.  Passes repeat while the next one is
expected to end within the run's seconds (at least one pass runs).
Every child's output is checked against the reference answers of
:mod:`inputs`.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from inputs import (
    PAPER_DESIGNS,
    Design,
    close,
    generated,
    paper_design,
    scipy_tc,
    set_arc_delay,
    with_clock,
)
from proc import Children, Finished
from stats import Outcome

_TC_LINE = re.compile(r"^optimal cycle time: (\S+)$", re.M)
_SEGMENT = re.compile(
    r"^  \[(\S+), (\S+)\]  slope (\S+)  Tc = (\S+) \+ (\S+) \* delay$", re.M
)

#: Grid size of ``repro sweep`` at its default options.
SWEEP_POINTS = 29


@dataclass
class Op:
    """One ``repro`` invocation of a pass and how to check its output."""

    label: str
    kind: str  # minimize | sweep | lint
    size: str  # small | mid | big
    command: list[str]
    check: Callable[[Finished], str | None]


def _check_minimize(tc: float) -> Callable[[Finished], str | None]:
    def check(done: Finished) -> str | None:
        if done.code != 0:
            return f"exit {done.code}: {done.stderr.strip()[-200:]}"
        found = _TC_LINE.search(done.stdout)
        if found is None:
            return "no 'optimal cycle time' line"
        if not close(float(found[1]), tc):
            return f"Tc {found[1]} != reference {tc:.9g}"
        return None

    return check


def _check_sweep(
    grid: list[float], expected: list[float]
) -> Callable[[Finished], str | None]:
    """Each grid point must lie on a printed segment at the reference Tc."""

    def check(done: Finished) -> str | None:
        if done.code != 0:
            return f"exit {done.code}: {done.stderr.strip()[-200:]}"
        segments = [tuple(map(float, m.groups()))
                    for m in _SEGMENT.finditer(done.stdout)]
        if not segments:
            return "no segments printed"
        for x, tc in zip(grid, expected):
            hits = [s for s in segments if s[0] - 1e-9 <= x <= s[1] + 1e-9]
            if not hits:
                return f"no segment covers delay {x:g}"
            for start, end, slope, intercept, _ in hits:
                if not close(intercept + slope * x, tc, rel=1e-4):
                    return (f"segment [{start:g}, {end:g}] gives "
                            f"{intercept + slope * x:.6g} at {x:g}, "
                            f"reference {tc:.6g}")
        return None

    return check


def _check_lint(
    tc: float, certificate: str | None,
) -> Callable[[Finished], str | None]:
    """Tc bound equal to the reference; certificate kind as expected."""

    def check(done: Finished) -> str | None:
        want_code = 0 if certificate is None else 1
        if done.code != want_code:
            return f"exit {done.code}, expected {want_code}"
        try:
            report = json.loads(done.stdout)
        except json.JSONDecodeError as err:
            return f"unreadable JSON report: {err}"
        diagnostics = report.get("diagnostics") or {}
        bound = (diagnostics.get("tc_lower_bound") or {}).get("value")
        if bound is None or not close(float(bound), tc):
            return f"Tc bound {bound} != reference {tc:.9g}"
        found = (diagnostics.get("certificate") or {}).get("kind")
        if found != certificate:
            return f"certificate {found!r}, expected {certificate!r}"
        return None

    return check


def _minimize_op(design: Design, size: str, *extra: str) -> Op:
    label = f"minimize {design.name}{' ' + ' '.join(extra) if extra else ''}"
    return Op(label, "minimize", size, ["minimize", design.path, *extra],
              _check_minimize(design.tc))


def design_ops(rng: random.Random, workdir: str, quick: bool) -> list[Op]:
    """Paper designs, seeded generated designs, one cycle run, one sweep."""
    ops = [_minimize_op(paper_design(name), "small") for name in PAPER_DESIGNS]
    if quick:
        specs = [("pipeline", 8, 2, "mid"), ("banked", 4, 4, "big")]
        cycle_spec, sweep_spec = ("pipeline", 8, 4), ("pipeline", 8, 2)
    else:
        specs = [
            ("pipeline", 32, 2, "mid"),   # 64 latches
            ("pipeline", 32, 4, "mid"),   # 128 latches
            ("banked", 8, 14, "mid"),     # 114 latches
            ("banked", 16, 14, "big"),    # 226 latches
        ]
        cycle_spec, sweep_spec = ("pipeline", 64, 4), ("pipeline", 64, 2)
    for family, a, b, size in specs:
        design = generated(rng, family, a, b)
        design.write(workdir)
        ops.append(_minimize_op(design, size))
    design = generated(rng, *cycle_spec, name="cycle")
    design.write(workdir)
    ops.append(_minimize_op(design, "big", "--backend", "cycle"))
    sweep = generated(rng, *sweep_spec, name="sweep")
    ops.append(_sweep_op(sweep, sweep_spec[1] // 2, workdir))
    return ops


def _sweep_op(design: Design, stage: int, workdir: str) -> Op:
    """Sweep the lane-0 arc into pipeline ``stage`` over [0.5, 1.5] x its delay.

    A fixed arc keeps the swept shape (three segments in the middle of
    the default pipeline) the same for every seed.
    """
    design.write(workdir)
    src, dst, delay = next(arc for arc in design.arcs()
                           if arc[:2] == (f"P{stage - 1}_0", f"P{stage}_0"))
    lo, hi = round(0.5 * delay, 3), round(1.5 * delay, 3)
    grid = [lo + (hi - lo) * i / (SWEEP_POINTS - 1) for i in range(SWEEP_POINTS)]
    expected = [scipy_tc(set_arc_delay(design.text, src, dst, x)) for x in grid]
    command = ["sweep", design.path, src, dst, "--lo", repr(lo), "--hi", repr(hi)]
    return Op(f"sweep {design.name} {src}->{dst}", "sweep", "mid", command,
              _check_sweep(grid, expected))


def lint_ops(rng: random.Random, workdir: str, quick: bool) -> list[Op]:
    """Paper designs plus ~1k-latch designs, one with an impossible clock."""
    ops = []
    for name in PAPER_DESIGNS:
        design = paper_design(name)
        ops.append(Op(f"lint {name}", "lint", "small",
                      ["lint", "--format", "json", design.path],
                      _check_lint(design.tc, None)))
    if quick:
        specs = [("banked", 8, 4), ("pipeline", 8, 4), ("banked", 6, 4)]
    else:
        specs = [("banked", 64, 14), ("pipeline", 128, 8), ("banked", 60, 14)]
    names = ("banked", "pipeline", "banked_clocked")
    for (family, a, b), name in zip(specs, names):
        design = generated(rng, family, a, b, name=name)
        certificate = None
        if name == "banked_clocked":
            # A clock 10% faster than the optimum: the period certificate.
            design.text = with_clock(design.text, round(0.9 * design.tc, 3))
            certificate = "period"
        design.write(workdir)
        ops.append(Op(f"lint {name} ({design.latches} latches)", "lint", "big",
                      ["lint", "--format", "json", design.path],
                      _check_lint(design.tc, certificate)))
    return ops


def run_passes(
    ops: list[Op], children: Children, seconds: float, outcome: Outcome
) -> list[list[tuple[Op, Finished]]]:
    """Repeat the pass while the next one should end within ``seconds``."""
    passes: list[list[tuple[Op, Finished]]] = []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        results = []
        for index, op in enumerate(ops):
            done = children.run(op.command, rid=f"p{len(passes)}.{index}")
            outcome.check(op.label, op.check(done))
            results.append((op, done))
        passes.append(results)
        now = time.perf_counter()
        if now - started + (now - begun) > seconds:
            return passes


def summarize(passes: list[list[tuple[Op, Finished]]], outcome: Outcome) -> None:
    """The end-to-end metrics of a CLI workload (see README.md)."""

    def per_pass(kind: str | None = None, size: str | None = None) -> float:
        """Median over passes of the summed wall time of matching children."""
        return statistics.median([
            sum(done.seconds for op, done in results
                if kind in (None, op.kind) and size in (None, op.size))
            for results in passes
        ])

    outcome.passes = len(passes)
    outcome.metrics["ops_s"] = (per_pass(), "s")
    outcome.metrics["big_s"] = (per_pass(size="big"), "s")
    for kind in sorted({op.kind for op, _ in passes[0]}):
        outcome.detail[f"{kind}_s"] = (per_pass(kind=kind), "s")
