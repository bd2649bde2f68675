"""End-to-end benchmark of ``repro`` at its user entry points.

Run from the repository root::

    python3 perfbench/run.py --workload design_cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, both modes
    python3 perfbench/run.py --all --quick --seconds 4   # smoke test

Workloads (see README.md for why each exists): ``design_cli`` and
``lint_cli`` spawn one ``python -m repro`` child per invocation;
``serve_mix`` drives a ``repro serve`` child over HTTP.  Every answer is
checked against an independent reference.  With ``--trace 0`` the last
line of output is the JSON result with the end-to-end metrics; with
``--trace 1`` children run under ``traced.py`` and the JSON carries the
per-layer metrics instead (self time and counts from spans).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from typing import Callable

import cli_workloads
import serve_mix
from proc import BenchError, Children
from spans import MARKERS, durations, layer_table, load
from stats import Outcome

#: Every run must end well inside the three-minute limit per run.
DEADLINE_S = 170.0

#: Fresh-interpreter imports timed for a CLI workload's ``setup_s``.
IMPORTS = 5

#: Scratch space inside the checkout; each run uses its own subdirectory.
WORK_ROOT = ".perfbench"

END_TO_END = ("setup_s", "ops_s", "big_s", "peak_rss_mb", "ok_frac")

#: Per-layer metrics: name -> (span name, field, unit).  ``self_s`` is
#: summed self time, ``calls`` the number of calls, ``n_*`` summed counts;
#: every value is per pass.
SPAN_LAYERS = {
    "cli.import_s": ("cli.import", "self_s", "s"),
    "lang.parse_s": ("lang.parse", "self_s", "s"),
    "lang.parse_calls": ("lang.parse", "calls", "count"),
    "core.constraints.build_s": ("core.constraints.build", "self_s", "s"),
    "core.constraints.build_calls": ("core.constraints.build", "calls", "count"),
    "core.constraints.rows": ("core.constraints.build", "n_rows", "count"),
    "lp.tc_s": ("lp.tc", "self_s", "s"),
    "lp.tc_calls": ("lp.tc", "calls", "count"),
    "lp.tc_pivots": ("lp.tc", "n_pivots", "count"),
    "lp.compact_s": ("lp.compact", "self_s", "s"),
    "lp.compact_calls": ("lp.compact", "calls", "count"),
    "lp.compact_pivots": ("lp.compact", "n_pivots", "count"),
    "cycle.tc_s": ("cycle.tc", "self_s", "s"),
    "cycle.tc_calls": ("cycle.tc", "calls", "count"),
    "lp.sweep_s": ("lp.sweep", "self_s", "s"),
    "lp.sweep_calls": ("lp.sweep", "calls", "count"),
    "lp.sweep_pivots": ("lp.sweep", "n_pivots", "count"),
    "maxplus.slide_s": ("maxplus.slide", "self_s", "s"),
    "maxplus.slide_calls": ("maxplus.slide", "calls", "count"),
    "maxplus.slide_sweeps": ("maxplus.slide", "n_sweeps", "count"),
    "core.analysis.verify_s": ("core.analysis.verify", "self_s", "s"),
    "core.analysis.verify_calls": ("core.analysis.verify", "calls", "count"),
    "lint.rules_s": ("lint.rules", "self_s", "s"),
    "lint.rules_calls": ("lint.rules", "calls", "count"),
    "lint.diagnose_s": ("lint.diagnose", "self_s", "s"),
    "lint.diagnose_calls": ("lint.diagnose", "calls", "count"),
    "serve.admission_calls": ("serve.admission", "calls", "count"),
    "engine.execute_s": ("engine.execute", "self_s", "s"),
    "engine.execute_calls": ("engine.execute", "calls", "count"),
    "serve.store_s": ("serve.store", "self_s", "s"),
    "serve.store_calls": ("serve.store", "calls", "count"),
}

#: Per-layer metrics measured by the load generator or from /metrics.
CLIENT_LAYERS = {
    "serve.loop_lag_s": "s",
    "serve.hit_frac": "ratio",
    "serve.coalesced": "count",
    "loadgen.lag_s": "s",
}


def layer_metrics(paths: list[str], passes: int) -> dict[str, tuple[float, str]]:
    """Every span-derived per-layer metric; a layer that never ran reads 0."""
    spans = load(paths)
    table = layer_table(spans)
    out: dict[str, tuple[float, str]] = {}
    for metric, (name, field, unit) in SPAN_LAYERS.items():
        out[metric] = (table.get(name, {}).get(field, 0.0) / passes, unit)
    warm = table.get("lp.sweep", {})
    out["lp.warm_hit_frac"] = (
        warm.get("n_warm_hits", 0.0) / warm["calls"] if warm.get("calls") else 0.0,
        "ratio",
    )
    admission = durations(spans, "serve.admission")
    out["serve.admission_p95_s"] = (
        serve_mix.p95(admission) if admission else 0.0, "s")
    out["serve.admission_max_s"] = (max(admission, default=0.0), "s")
    waits = [s.get("queue_wait_s", 0.0) for s in spans if s["name"] == "engine.execute"]
    out["engine.queue_wait_s"] = (sum(waits) / passes, "s")
    out["unattributed_s"] = (
        sum(table.get(name, {}).get("self_s", 0.0) for name in MARKERS) / passes, "s")
    return out


def _cli_workload(
    make_ops: Callable[..., list[cli_workloads.Op]],
) -> Callable[..., None]:
    def run(children: Children, workdir: str, rng: random.Random, seconds: float,
            quick: bool, outcome: Outcome) -> None:
        ops = make_ops(rng, workdir, quick)
        # Set-up is sampled before and after the passes, so one slow
        # stretch of the machine cannot set the median.
        imports = 1 if quick else IMPORTS
        setups = [children.import_seconds() for _ in range(imports - imports // 2)]
        passes = cli_workloads.run_passes(ops, children, seconds, outcome)
        setups += [children.import_seconds() for _ in range(imports // 2)]
        outcome.metrics["setup_s"] = (statistics.median(setups), "s")
        cli_workloads.summarize(passes, outcome)

    return run


WORKLOADS: dict[str, Callable[..., None]] = {
    "design_cli": _cli_workload(cli_workloads.design_ops),
    "lint_cli": _cli_workload(cli_workloads.lint_ops),
    "serve_mix": serve_mix.run,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> Outcome:
    """One run: generate inputs, set up, measure, check."""
    for needed in ("src/repro/cli.py", "examples/example1.lcd"):
        if not os.path.isfile(needed):
            raise BenchError(f"run from the repository root: {needed} is missing")
    if os.path.abspath("src") not in sys.path:
        sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    outcome = Outcome()
    try:
        children = Children(workdir, time.monotonic() + DEADLINE_S, trace)
        WORKLOADS[name](children, workdir, random.Random(seed), seconds, quick,
                        outcome)
        outcome.metrics["peak_rss_mb"] = (children.peak_rss_mb, "MB")
        outcome.metrics.setdefault(
            "ok_frac",
            ((outcome.attempted - outcome.failed) / outcome.attempted, "ratio"))
        outcome.detail["fail_frac"] = (outcome.failed / outcome.attempted, "ratio")
        if trace:
            outcome.layers = {**layer_metrics(children.spans, outcome.passes),
                              **outcome.layers}
            for metric, unit in CLIENT_LAYERS.items():
                outcome.layers.setdefault(metric, (0.0, unit))
            outcome.spans_file = _keep_spans(children.spans, name, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def _keep_spans(paths: list[str], workload: str, seed: int) -> str:
    """Merge a traced run's span files into one file that outlives the run."""
    target = os.path.join(WORK_ROOT, f"spans-{workload}-seed{seed}.json")
    merged = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            merged.append(json.load(handle))
    with open(target, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "processes": merged}, handle)
    return target


def _table(rows: dict[str, tuple[float, str]]) -> list[str]:
    return [f"  {name:<30} {value:>14.6g} {unit}"
            for name, (value, unit) in rows.items()]


def report(name: str, seed: int, seconds: float, trace: bool,
           outcome: Outcome) -> dict:
    """Print the human-readable report and return the JSON result."""
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"passes={outcome.passes} attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    print("end-to-end" + (" (traced: compare with an untraced run)" if trace else ""))
    print("\n".join(_table({k: outcome.metrics[k] for k in END_TO_END})))
    print("workload-specific names")
    print("\n".join(_table(outcome.detail)))
    if trace:
        print("per layer (self time and counts per pass)")
        print("\n".join(_table(outcome.layers)))
        print(f"spans: {outcome.spans_file}")
    for error in outcome.errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    chosen = outcome.layers if trace else {k: outcome.metrics[k] for k in END_TO_END}
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }


def run_all(seed: int, seconds: float, quick: bool) -> int:
    """Every workload untraced then traced, plus the tracing overhead."""
    failed = 0
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, False, quick)
        report(name, seed, seconds, False, plain)
        traced = run_workload(name, seed, seconds, True, quick)
        report(name, seed, seconds, True, traced)
        print(f"tracing overhead on {name} (traced - untraced)")
        print("\n".join(_table({
            k: (traced.metrics[k][0] - plain.metrics[k][0], plain.metrics[k][1])
            for k in END_TO_END
        })))
        failed += plain.failed + traced.failed
    print(f"all workloads: {failed} failed operations")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small designs and short schedules (smoke test)")
    args = parser.parse_args(argv)
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.quick)
        if args.workload is None:
            parser.error("--workload or --all is required")
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.quick)
        result = report(args.workload, args.seed, args.seconds, bool(args.trace),
                        outcome)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
