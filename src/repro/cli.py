"""Command-line interface: optimize, analyze, sweep, tune, compare.

Operates on ``.lcd`` circuit description files (see :mod:`repro.lang`)::

    python -m repro minimize circuit.lcd
    python -m repro minimize circuit.lcd --nrip --svg schedule.svg
    python -m repro analyze  circuit_with_clock.lcd --hold
    python -m repro sweep    circuit.lcd L4 L1 --lo 0 --hi 140
    python -m repro tune     circuit.lcd --period 120
    python -m repro baselines circuit.lcd --jobs 4
    python -m repro batch    designs.txt --jobs 4 --cache results.json
    python -m repro batch    designs.txt --cache results.sqlite
    python -m repro serve    --port 8350 --store results.sqlite
    python -m repro loadgen  --url http://127.0.0.1:8350 --requests 64
    python -m repro minimize circuit.lcd --trace run.json
    python -m repro trace summarize run.json
    python -m repro top      --url http://127.0.0.1:8350
    python -m repro bench    record BENCH_local.json --label HEAD
    python -m repro bench    compare BENCH_local.json --warn-only

Every subcommand accepts the global observability flags (see
``docs/OBSERVABILITY.md``): ``--trace FILE`` records a hierarchical span
trace (Chrome-trace/Perfetto JSON), ``--log-json FILE`` appends a
structured JSONL event log, ``-v`` adds diagnostics and ``-q`` silences
normal output (exit codes still carry the result).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import Sequence

# OpenBLAS starts a worker at `import numpy` that spins on a core, yet no
# default path calls a BLAS kernel big enough to thread.  Pin the CLI to
# one thread before numpy loads, unless the caller chose a thread count or
# the command line can reach the revised simplex, whose basis products
# and inverses do thread (docs/PERFORMANCE.md): a named revised or
# cycle+check backend, or `serve`, whose requests name their own.  Pool
# workers inherit the setting; library users who only `import repro`
# keep their BLAS as configured.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_THREADED_BLAS_ARGS = frozenset({"revised", "cycle+check", "serve"})
if not any(name in os.environ for name in _BLAS_THREADS) and not any(
    arg.rpartition("=")[2] in _THREADED_BLAS_ARGS for arg in sys.argv[1:]
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# Only what the default minimize/lint/sweep paths run is imported here;
# flags and rarer subcommands import their own layers where they use them.
from repro import obs  # noqa: E402
from repro.core.analysis import analyze  # noqa: E402
from repro.core.constraints import ConstraintOptions  # noqa: E402
from repro.core.mlp import MLPOptions, minimize_cycle_time  # noqa: E402
from repro.core.parametric import exact_sweep_delay, sweep_delay  # noqa: E402
from repro.core.reporting import (  # noqa: E402
    format_comparison,
    format_optimal_result,
)
from repro.errors import ReproError  # noqa: E402
from repro.lang.parser import parse_file  # noqa: E402
from repro.lint.graphdiag import diagnose  # noqa: E402
from repro.lint.rules import run_lint, run_rules  # noqa: E402

# Output-routing state, set once per main() invocation from -q/-v.
_QUIET = False
_VERBOSE = False


def _emit(text: str = "") -> None:
    """Primary CLI output; suppressed by ``-q`` (exit codes still apply)."""
    if not _QUIET:
        print(text)


def _info(text: str) -> None:
    """Diagnostic output, shown only with ``-v`` (goes to stderr)."""
    if _VERBOSE and not _QUIET:
        print(text, file=sys.stderr)


def _error(text: str) -> None:
    """Errors always print, quiet or not."""
    print(text, file=sys.stderr)


def _load(path: str):
    decl = parse_file(path)
    return decl.to_graph(), decl.to_schedule()


def _constraint_options(args: argparse.Namespace) -> ConstraintOptions:
    return ConstraintOptions(
        min_width=getattr(args, "min_width", 0.0),
        min_separation=getattr(args, "separation", 0.0),
        setup_margin=getattr(args, "margin", 0.0),
        max_period=getattr(args, "max_period", None),
    )


def _backend_help() -> str:
    """The --backend help line, built from the live backend registry."""
    from repro.lp.backends import available_backends

    names = "|".join(available_backends())
    return (
        f"LP backend ({names}; default: the certified cycle engine, "
        "falling back to a simplex)"
    )


def _add_common_constraints(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-width", type=float, default=0.0, dest="min_width",
                        help="minimum active width for every phase")
    parser.add_argument("--separation", type=float, default=0.0,
                        help="extra spacing on the C3 nonoverlap constraints")
    parser.add_argument("--margin", type=float, default=0.0,
                        help="global setup margin (skew/jitter allowance)")


def _global_flags_parser() -> argparse.ArgumentParser:
    """The shared observability/verbosity flags, as an argparse parent."""
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("observability")
    group.add_argument("--trace", default=None, metavar="FILE",
                       help="record a hierarchical span trace to FILE "
                       "(Chrome-trace JSON, loadable in Perfetto)")
    group.add_argument("--log-json", default=None, dest="log_json",
                       metavar="FILE",
                       help="append a structured JSONL event log to FILE")
    group.add_argument("-v", "--verbose", action="store_true",
                       help="print diagnostics to stderr")
    group.add_argument("-q", "--quiet", action="store_true",
                       help="suppress normal output (exit codes only)")
    return common


def _preflight_lint(graph, options, args: argparse.Namespace) -> int:
    """Structural lint before solving; returns 0 to proceed, 2 to abort.

    Runs the rule registry over the circuit (no schedule); errors abort,
    warnings surface with ``-v``.  When the options pin or cap the clock,
    the constraint-graph diagnosis also runs, so a provably infeasible
    request fails here with a named negative-cycle certificate instead of
    an opaque LP status.
    """
    if getattr(args, "no_lint", False):
        return 0
    report = run_rules(graph, None, options)
    for finding in report.warnings:
        _info(f"lint: {finding}")
    if not report.ok:
        for finding in report.errors:
            _error(f"error: lint: {finding.message}")
        obs.emit("lint.failed", level="error", file=args.file,
                 errors=len(report.errors))
        return 2
    if options.pins_clock:
        diagnostics = diagnose(graph, options)
        if diagnostics.certificate is not None:
            _error(f"error: lint: {diagnostics.certificate.message}")
            _error(diagnostics.certificate.format())
            obs.emit("lint.infeasible", level="error", file=args.file,
                     kind=diagnostics.certificate.kind)
            return 2
    return 0


def cmd_minimize(args: argparse.Namespace) -> int:
    graph, _ = _load(args.file)
    options = _constraint_options(args)
    code = _preflight_lint(graph, options, args)
    if code:
        return code
    mlp = MLPOptions(backend=args.backend, kernel=args.kernel,
                     sanitize=args.sanitize)
    if args.nrip:
        from repro.baselines.nrip import nrip_minimize

        result = nrip_minimize(graph, initial_phase=args.initial_phase,
                               options=options, mlp=mlp)
        _emit(f"NRIP (initial phase {result.extra['initial_phase']}):")
    else:
        result = minimize_cycle_time(graph, options, mlp)
    _emit(format_optimal_result(result))
    obs.emit("minimize.done", file=args.file, period=result.period,
             slide_sweeps=result.slide_sweeps)
    sanitize_report = result.extra.get("sanitize")
    if sanitize_report is not None:
        _emit(sanitize_report.format())
    if args.critical:
        from repro.core.critical import critical_segments

        _emit()
        _emit(str(critical_segments(result.smo, result.lp_result)))
    if args.strips:
        from repro.render.ascii_art import strip_diagram

        _emit()
        _emit(strip_diagram(graph, analyze(graph, result.schedule, options)))
    if args.svg:
        from repro.render.svg import schedule_svg

        report = analyze(graph, result.schedule, options)
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(schedule_svg(result.schedule, graph, report))
        _emit(f"\nwrote {args.svg}")
    if args.write:
        from repro.lang.writer import write_circuit

        with open(args.write, "w", encoding="utf-8") as handle:
            handle.write(write_circuit(graph, result.schedule))
        _emit(f"wrote {args.write}")
    if args.dot:
        from repro.export.dot import to_dot

        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(graph))
        _emit(f"wrote {args.dot}")
    if args.lp:
        from repro.export.lpformat import to_cplex_lp

        with open(args.lp, "w", encoding="utf-8") as handle:
            handle.write(to_cplex_lp(result.smo.program))
        _emit(f"wrote {args.lp}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    graph, schedule = _load(args.file)
    if schedule is None:
        _error(
            "error: the file's clock block has no concrete schedule "
            "(need 'period' and per-phase 'start'/'width')"
        )
        return 2
    options = _constraint_options(args)
    code = _preflight_lint(graph, options, args)
    if code:
        return code
    report = analyze(graph, schedule, options)
    _emit(str(report))
    obs.emit("analyze.done", file=args.file, feasible=report.feasible)
    if args.hold:
        from repro.core.shortpath import check_hold

        hold = check_hold(graph, schedule)
        _emit(
            f"\nhold: {'clean' if hold.feasible else 'VIOLATED'} "
            f"(worst slack {hold.worst_slack:g})"
        )
        for timing in hold.violations:
            _emit(f"  hold violation at {timing.name}: slack {timing.slack:g}")
        if not hold.feasible:
            return 1
    return 0 if report.feasible else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    graph, _ = _load(args.file)
    options = _constraint_options(args)
    # One Tc solve per distinct point.
    mlp = MLPOptions(
        backend=args.backend, verify=False, compact=False, kernel=args.kernel
    )
    if args.exact:
        result = exact_sweep_delay(
            graph, args.src, args.dst, args.lo, args.hi, options=options, mlp=mlp
        )
    else:
        steps = max(2, args.points)
        grid = [
            args.lo + (args.hi - args.lo) * i / (steps - 1) for i in range(steps)
        ]
        result = sweep_delay(
            graph, args.src, args.dst, grid, options=options, mlp=mlp,
            jobs=args.jobs,
        )
    _emit(f"segments of Tc(delay {args.src}->{args.dst}):")
    for seg in result.segments:
        _emit(
            f"  [{seg.start:g}, {seg.end:g}]  slope {seg.slope:g}  "
            f"Tc = {seg.intercept:g} + {seg.slope:g} * delay"
        )
    if result.breakpoints:
        _emit(f"breakpoints: {[round(b, 6) for b in result.breakpoints]}")
    obs.emit("sweep.done", file=args.file, segments=len(result.segments))
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    from repro.core.tuning import maximize_slack

    graph, _ = _load(args.file)
    options = _constraint_options(args)
    tuned = maximize_slack(graph, args.period, options=options)
    _emit(
        f"best uniform setup slack at Tc = {args.period:g}: {tuned.slack:g}"
    )
    _emit(str(tuned.schedule))
    return 0 if tuned.meets_timing else 1


def cmd_baselines(args: argparse.Namespace) -> int:
    from repro.baselines.ladder import run_ladder

    graph, _ = _load(args.file)
    options = _constraint_options(args)
    ladder = run_ladder(
        graph, options=options, mlp=MLPOptions(verify=False), jobs=args.jobs
    )
    rows = [
        {"algorithm": row.label, "Tc": row.period, "ratio": row.ratio}
        for row in ladder
    ]
    _emit(format_comparison(rows, ["algorithm", "Tc", "ratio"]))
    return 0


def _batch_files(entries: Sequence[str]) -> list[str]:
    """Expand ``batch`` arguments: ``.lcd`` files directly, manifests by line."""
    files: list[str] = []
    for entry in entries:
        if entry.endswith(".lcd"):
            files.append(entry)
            continue
        with open(entry, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line and not line.startswith("#"):
                    files.append(line)
    return files


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.engine import Engine, MinimizeJob
    from repro.serve.store import open_cache

    files = _batch_files(args.files)
    if not files:
        _error("error: no .lcd files to run")
        return 2
    options = _constraint_options(args)
    mlp = MLPOptions(backend=args.backend, verify=False, kernel=args.kernel)
    batch = []
    load_errors: dict[str, str] = {}
    for path in files:
        # A malformed design must not abort the rest of the batch.
        try:
            graph, _ = _load(path)
        except (ReproError, OSError) as exc:
            load_errors[path] = str(exc)
            obs.emit("batch.load_error", level="warning", file=path,
                     error=str(exc))
            continue
        batch.append(
            MinimizeJob(graph=graph, options=options, mlp=mlp, label=path)
        )
    # A *.sqlite cache is the persistent content-addressed store shared
    # with `repro serve`; any other path keeps the JSON file cache.
    cache = open_cache(args.cache) if args.cache else None
    engine = Engine(
        jobs=args.jobs,
        cache=cache,
        timeout=args.timeout,
        retries=args.retries,
    )
    try:
        results = engine.run_jobs(batch)
        engine.save_cache()
        report_text = engine.report.format()
    finally:
        store = getattr(engine.cache, "store", None)
        if store is not None:
            store.close()

    by_label = {result.label: result for result in results}
    width = max(len(path) for path in files)
    failures = 0
    for path in files:
        result = by_label.get(path)
        if result is None:
            failures += 1
            _emit(f"{path:<{width}}  FAILED: {load_errors[path]}")
        elif result.ok:
            note = " (cached)" if result.cached else ""
            _emit(f"{path:<{width}}  Tc = {result.value:g}{note}")
        else:
            failures += 1
            _emit(f"{path:<{width}}  FAILED: {result.error}")
    _emit()
    _emit(report_text)
    obs.emit("batch.done", files=len(files), failures=failures)
    return 1 if failures else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the analysis service (docs/SERVE.md) until SIGINT/SIGTERM."""
    import asyncio

    from repro.serve import AnalysisService, HttpServer, ResultStore

    store = ResultStore(args.store) if args.store else None
    service = AnalysisService(
        store=store,
        workers=args.workers,
        lint=not args.no_lint,
        trace_jobs=not args.no_job_trace,
    )
    server = HttpServer(
        service, host=args.host, port=args.port,
        drain_timeout=args.drain_timeout,
    )

    def _ready(srv: "HttpServer") -> None:
        where = store.path if store else "in-memory only"
        _emit(f"serving on {srv.url} (results: {where})")
        obs.emit("serve.start", url=srv.url, store=str(where))

    try:
        asyncio.run(server.run(on_ready=_ready))
    except KeyboardInterrupt:
        pass  # drained inside run(); exit cleanly
    _emit("drained; bye")
    obs.emit("serve.stop")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive a running service with a weighted request mix and report."""
    from repro.serve import load_mix, run_load

    mix = load_mix(args.mix) if args.mix else None
    report = run_load(
        args.url,
        mix=mix,
        requests=args.requests,
        concurrency=args.concurrency,
        seed=args.seed,
        timeout=args.timeout,
    )
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2))
    else:
        _emit(report.format())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        _info(f"wrote {args.out}")
    obs.emit("loadgen.done", requests=report.requests, errors=report.errors)
    return 1 if report.errors else 0


def cmd_devlint(args: argparse.Namespace) -> int:
    """Project static analysis over the repo's own source.

    Where ``repro lint`` checks circuits, ``repro devlint`` checks the
    codebase: blocking calls on the serve event loop, nondeterminism in
    job-signature functions, observability hygiene, and sparsity wiring
    (see docs/DEVLINT.md).  Exit code 0 when clean modulo the committed
    baseline, 1 on actionable findings, 2 on unusable input.
    """
    import os

    from repro.devlint import (
        DEFAULT_BASELINE,
        DevLintError,
        lint_paths,
        registered_rules,
        run_devlint,
        save_baseline,
    )

    if args.list_rules:
        for rule_def in registered_rules():
            _emit(
                f"{rule_def.code} [{rule_def.severity.value}] "
                f"{rule_def.description}"
            )
            if rule_def.fix_hint:
                _emit(f"    fix: {rule_def.fix_hint}")
        return 0
    paths = args.paths or [os.path.join(args.root, "src", "repro")]
    codes = (
        [c.strip() for c in args.rules.split(",") if c.strip()]
        if args.rules
        else None
    )
    try:
        if args.no_baseline:
            report = lint_paths(paths, root=args.root, codes=codes)
        else:
            report = run_devlint(
                paths,
                root=args.root,
                baseline_path=args.baseline,
                codes=codes,
            )
    except DevLintError as exc:
        _error(f"error: {exc}")
        return 2
    if args.update_baseline:
        target = args.baseline or os.path.join(args.root, DEFAULT_BASELINE)
        count = save_baseline(target, report.findings + report.baselined)
        _emit(
            f"devlint: wrote {count} "
            f"entr{'y' if count == 1 else 'ies'} to {target}"
        )
        return 0
    obs.emit("devlint.done", ok=report.ok, findings=len(report.findings),
             files=report.files)
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2))
    else:
        _emit(report.format(show_baselined=args.show_baselined))
    return 0 if report.ok else 1


def cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis over one or more designs (see docs/LINT.md).

    Runs every registered rule plus the constraint-graph diagnostics on
    each design (against its embedded schedule when the file carries one)
    and reports findings as text or JSON.  Exit code 1 when any design has
    an error-severity finding, 2 when nothing could be loaded.
    """
    files = _batch_files(args.files)
    if not files:
        _error("error: no .lcd files to lint")
        return 2
    options = _constraint_options(args)
    reports = []
    load_errors = 0
    failures = 0
    for path in files:
        try:
            graph, schedule = _load(path)
        except (ReproError, OSError) as exc:
            load_errors += 1
            failures += 1
            _error(f"error: {path}: {exc}")
            reports.append(
                {"source": path, "ok": False, "load_error": str(exc)}
            )
            continue
        file_options = options
        if (
            schedule is not None
            and not args.no_schedule
            and options.max_period is None
        ):
            # A fully specified clock pins the cycle time: diagnose
            # feasibility *at the declared period*, so a design that can
            # never run this fast gets a negative-cycle certificate.
            file_options = replace(options, max_period=schedule.period)
        report = run_lint(
            graph,
            None if args.no_schedule else schedule,
            file_options,
            graph_diagnostics=not args.no_graph,
            source=path,
        )
        obs.emit("lint.done", file=path, ok=report.ok,
                 findings=len(report.findings))
        if not report.ok:
            failures += 1
        reports.append(report.to_dict())
        if args.format == "text":
            _emit(report.format())
    if args.format == "json":
        _emit(json.dumps(reports if len(reports) > 1 else reports[0],
                         indent=2))
    if load_errors == len(files):
        return 2
    return 1 if failures else 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a running service's /metrics."""
    from repro.obs.top import run_top

    frames = run_top(
        args.url,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )
    obs.emit("top.done", url=args.url, frames=frames)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """The ``repro bench`` family: record/compare a perf trajectory."""
    from repro.obs import bench

    if args.bench_cmd == "record":
        entry = bench.record(
            args.file,
            label=args.label,
            only=args.only or None,
            repeats=args.repeats,
        )
        _emit(f"recorded {len(entry['results'])} benchmark(s) to {args.file}"
              + (f" (label {args.label!r})" if args.label else ""))
        for name, res in sorted(entry["results"].items()):
            _emit(f"  {name:<28} {1000.0 * res['seconds']:9.2f} ms  "
                  f"(check {res['check']:g})")
        obs.emit("bench.record", file=args.file,
                 benchmarks=len(entry["results"]))
        return 0
    # "compare" -- membership enforced by argparse choices
    report = bench.compare(args.file, threshold=args.threshold)
    _emit(report.format())
    obs.emit("bench.compare", file=args.file,
             regressions=len(report.regressions), ok=report.ok)
    if not report.ok:
        if args.warn_only:
            _error("warning: benchmark regressions detected (warn-only)")
            return 0
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """The ``repro trace`` family: offline tools over recorded trace files."""
    try:
        run_id, spans = obs.load_trace(args.file)
    except ValueError as err:  # includes json.JSONDecodeError
        _error(f"error: {err}")
        return 2
    if args.trace_cmd == "summarize":
        _emit(obs.summarize(spans, run_id))
    else:  # "export-prom" -- membership enforced by argparse choices
        _emit(obs.prometheus_text(spans))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMO latch timing: optimal clock scheduling by LP "
        "(Sakallah, Mudge, Olukotun, DAC 1990)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _global_flags_parser()

    p = sub.add_parser("minimize", parents=[common],
                       help="find the optimal cycle time (MLP)")
    p.add_argument("file", help=".lcd circuit description")
    p.add_argument("--backend", default=None, help=_backend_help())
    p.add_argument("--kernel", default="auto",
                   choices=("dict", "array", "auto"),
                   help="fixpoint kernel for the departure slide "
                   "(default auto)")
    p.add_argument("--max-period", type=float, default=None, dest="max_period")
    p.add_argument("--nrip", action="store_true", help="run the NRIP baseline")
    p.add_argument("--initial-phase", default=None, dest="initial_phase",
                   help="NRIP initial phase (default: last)")
    p.add_argument("--critical", action="store_true",
                   help="print critical segments")
    p.add_argument("--strips", action="store_true",
                   help="print Fig. 6-style strip diagrams")
    p.add_argument("--svg", default=None, help="write an SVG schedule")
    p.add_argument("--write", default=None,
                   help="write the circuit + solved schedule back to .lcd")
    p.add_argument("--dot", default=None,
                   help="write a Graphviz view of the circuit")
    p.add_argument("--lp", default=None,
                   help="write the constraint system in CPLEX LP format")
    p.add_argument("--no-lint", action="store_true", dest="no_lint",
                   help="skip the structural lint pre-flight")
    p.add_argument("--sanitize", action="store_true",
                   help="re-verify the result against every P1 constraint")
    _add_common_constraints(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("analyze", parents=[common],
                       help="verify a circuit at its embedded clock")
    p.add_argument("file")
    p.add_argument("--hold", action="store_true", help="also run the hold check")
    p.add_argument("--no-lint", action="store_true", dest="no_lint",
                   help="skip the structural lint pre-flight")
    _add_common_constraints(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "lint",
        parents=[common],
        help="static analysis: rules, certificates, Tc lower bounds",
        description="Run the lint rule registry and the constraint-graph "
        "diagnostics (negative-cycle infeasibility certificates, cycle-ratio "
        "Tc lower bound) over .lcd files and/or manifests.  Exit code 1 when "
        "any design has an error-severity finding.  See docs/LINT.md.",
    )
    p.add_argument("files", nargs="+",
                   help=".lcd files or manifests listing them")
    p.add_argument("--format", default="text", choices=("text", "json"),
                   help="output format (default text)")
    p.add_argument("--no-graph", action="store_true", dest="no_graph",
                   help="skip the constraint-graph diagnostics pass")
    p.add_argument("--no-schedule", action="store_true", dest="no_schedule",
                   help="ignore any schedule embedded in the files")
    p.add_argument("--max-period", type=float, default=None,
                   dest="max_period",
                   help="diagnose feasibility against a period cap")
    _add_common_constraints(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "devlint",
        parents=[common],
        help="static analysis over the repro source tree itself",
        description="Run the devlint rule registry (async blocking-call "
        "detection, hash-determinism checks, observability hygiene, "
        "sparsity wiring) over the project's own Python source.  Exit "
        "code 0 when clean modulo the committed baseline.  See "
        "docs/DEVLINT.md.",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to lint (default src/repro)")
    p.add_argument("--format", default="text", choices=("text", "json"),
                   help="output format (default text)")
    p.add_argument("--root", default=".",
                   help="repo root for relative paths and the default "
                   "baseline location (default .)")
    p.add_argument("--baseline", default=None,
                   help="baseline file (default <root>/devlint-baseline.json "
                   "when present)")
    p.add_argument("--no-baseline", action="store_true", dest="no_baseline",
                   help="report every finding, ignoring any baseline")
    p.add_argument("--update-baseline", action="store_true",
                   dest="update_baseline",
                   help="accept all current findings into the baseline file")
    p.add_argument("--show-baselined", action="store_true",
                   dest="show_baselined",
                   help="also list baselined (accepted) findings")
    p.add_argument("--rules", default=None,
                   help="comma-separated rule codes to run (default all)")
    p.add_argument("--list-rules", action="store_true", dest="list_rules",
                   help="list registered rules and exit")
    p.set_defaults(func=cmd_devlint)

    p = sub.add_parser("sweep", parents=[common],
                       help="piecewise-linear Tc(delay) curve")
    p.add_argument("file")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--points", type=int, default=29, help="grid size")
    p.add_argument("--exact", action="store_true",
                   help="exact breakpoints from the Tc solves' slopes instead "
                   "of a grid")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for grid evaluation (default 1)")
    p.add_argument("--backend", default=None, help=_backend_help())
    p.add_argument("--kernel", default="auto",
                   choices=("dict", "array", "auto"),
                   help="fixpoint kernel for the departure slide "
                   "(default auto)")
    _add_common_constraints(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tune", parents=[common],
                       help="maximize setup slack at a fixed period")
    p.add_argument("file")
    p.add_argument("--period", type=float, required=True)
    _add_common_constraints(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("baselines", parents=[common],
                       help="compare MLP with every baseline")
    p.add_argument("file")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the ladder (default 1)")
    _add_common_constraints(p)
    p.set_defaults(func=cmd_baselines)

    p = sub.add_parser(
        "batch",
        parents=[common],
        help="run many designs through the cached, parallel engine",
        description="Arguments are .lcd files and/or manifest files "
        "(one .lcd path per line, '#' comments).  Every design is "
        "minimized through the engine; a per-stage metrics report is "
        "printed at the end.",
    )
    p.add_argument("files", nargs="+",
                   help=".lcd files or manifests listing them")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1: in-process serial)")
    p.add_argument("--cache", default=None,
                   help="JSON result-cache file (read if present, updated)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job wall-clock limit in seconds")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts after a worker crash/timeout")
    p.add_argument("--backend", default=None, help=_backend_help())
    p.add_argument("--kernel", default="auto",
                   choices=("dict", "array", "auto"),
                   help="fixpoint kernel for the departure slide "
                   "(default auto)")
    _add_common_constraints(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "serve",
        parents=[common],
        help="run the analysis-as-a-service HTTP server",
        description="Long-running HTTP+JSON service over the batch engine "
        "(see docs/SERVE.md): POST /v1/jobs, streamed progress events, "
        "request coalescing, and a persistent content-addressed SQLite "
        "result store shared with `repro batch --cache *.sqlite`.  "
        "SIGINT/SIGTERM drain in-flight jobs before exit.",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8350,
                   help="TCP port (default 8350; 0 picks a free port)")
    p.add_argument("--store", default=None, metavar="FILE",
                   help="persistent SQLite result store "
                   "(e.g. results.sqlite; omit for in-memory only)")
    p.add_argument("--workers", type=int, default=2,
                   help="executor threads for job execution (default 2)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   dest="drain_timeout",
                   help="seconds to wait for in-flight jobs on shutdown")
    p.add_argument("--no-lint", action="store_true", dest="no_lint",
                   help="skip the lint admission pre-flight")
    p.add_argument("--no-job-trace", action="store_true", dest="no_job_trace",
                   help="disable per-job span recording (fewer progress "
                   "events, slightly faster)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        parents=[common],
        help="drive a running service with a weighted request mix",
        description="Deterministic load generator for `repro serve`: "
        "fires a seeded weighted mix of requests (see "
        "examples/loadgen_mix.json) and reports client latency "
        "percentiles plus server-side counter deltas from /metrics.",
    )
    p.add_argument("--url", default="http://127.0.0.1:8350",
                   help="server base URL (default http://127.0.0.1:8350)")
    p.add_argument("--mix", default=None, metavar="FILE",
                   help="request-mix JSON file (default: built-in mix)")
    p.add_argument("--requests", type=int, default=32,
                   help="total requests to send (default 32)")
    p.add_argument("--concurrency", type=int, default=4,
                   help="concurrent client connections (default 4)")
    p.add_argument("--seed", type=int, default=0,
                   help="PRNG seed for the weighted draws (default 0)")
    p.add_argument("--timeout", type=float, default=60.0,
                   help="per-request timeout in seconds (default 60)")
    p.add_argument("--format", default="text", choices=("text", "json"),
                   help="report format (default text)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="also write the JSON report to FILE")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "top",
        parents=[common],
        help="live terminal dashboard over a service's /metrics",
        description="Poll the Prometheus exposition endpoint of a running "
        "`repro serve` and render request rate, error %, latency "
        "quantiles (derived from histogram buckets), cache hit ratio and "
        "queue depth, refreshed every --interval seconds until Ctrl-C.",
    )
    p.add_argument("--url", default="http://127.0.0.1:8350",
                   help="server base URL (default http://127.0.0.1:8350)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between scrapes (default 2)")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after N frames (default: run until Ctrl-C)")
    p.add_argument("--no-clear", action="store_true", dest="no_clear",
                   help="append frames instead of clearing the screen")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "bench",
        help="record/compare a benchmark trajectory (perf regression gate)",
        description="'record' runs a quick deterministic workload suite "
        "and appends best-of-N timings to a versioned BENCH_*.json "
        "trajectory; 'compare' diffs two entries (default: the last two) "
        "and flags workloads slower than --threshold.  CI runs compare "
        "--warn-only as the perf-regression gate.",
    )
    bsub = p.add_subparsers(dest="bench_cmd", required=True)
    bp = bsub.add_parser("record", parents=[common])
    bp.add_argument("file", nargs="?", default="BENCH_local.json",
                    help="trajectory JSON file (default BENCH_local.json)")
    bp.add_argument("--label", default="",
                    help="entry label (e.g. a commit hash)")
    bp.add_argument("--repeats", type=int, default=3,
                    help="timed runs per workload; best is kept (default 3)")
    bp.add_argument("--only", action="append", default=None,
                    metavar="NAME", help="run only this workload (repeatable)")
    bp.set_defaults(func=cmd_bench)
    bp = bsub.add_parser("compare", parents=[common])
    bp.add_argument("file", nargs="?", default="BENCH_local.json",
                    help="trajectory JSON file (default BENCH_local.json)")
    bp.add_argument("--threshold", type=float, default=0.20,
                    help="regression threshold as a fraction (default 0.20)")
    bp.add_argument("--warn-only", action="store_true", dest="warn_only",
                    help="report regressions but exit 0 (CI soft gate)")
    bp.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "trace",
        help="inspect a recorded --trace file",
        description="Offline tools over a trace recorded with --trace: "
        "'summarize' prints a top-down time breakdown plus LP/slide "
        "convergence tables; 'export-prom' flattens the spans into "
        "Prometheus exposition text.",
    )
    tsub = p.add_subparsers(dest="trace_cmd", required=True)
    for action in ("summarize", "export-prom"):
        tp = tsub.add_parser(action, parents=[common])
        tp.add_argument("file", help="trace JSON written by --trace")
        tp.set_defaults(func=cmd_trace)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    global _QUIET, _VERBOSE
    parser = build_parser()
    args = parser.parse_args(argv)
    _QUIET = bool(getattr(args, "quiet", False))
    _VERBOSE = bool(getattr(args, "verbose", False))
    trace_path = getattr(args, "trace", None)
    log_path = getattr(args, "log_json", None)

    tracer = obs.enable() if trace_path else None
    log = None
    bridge = None
    if log_path:
        log = obs.EventLog(log_path, level="debug" if _VERBOSE else "info")
        obs.set_log(log)
        bridge = obs.install_logging_bridge(log)
        log.emit("run.start", command=args.command)

    start = time.perf_counter()
    code = 2
    try:
        root = tracer.span(f"repro.{args.command}") if tracer else None
        if root is not None:
            root.__enter__()
        try:
            code = args.func(args)
        finally:
            if root is not None:
                root.__exit__(None, None, None)
        return code
    except ReproError as err:
        _error(f"error: {err}")
        obs.emit("run.error", level="error", error=str(err))
        return code
    except KeyboardInterrupt:
        # Ctrl-C or SIGTERM (converted by the worker pool): children are
        # already torn down; report the conventional 128+SIGINT code.
        _error("interrupted")
        obs.emit("run.interrupted", level="warning", command=args.command)
        code = 130
        return code
    except BrokenPipeError:
        # Downstream consumer (head, less) closed stdout; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except OSError as err:
        _error(f"error: {err}")
        obs.emit("run.error", level="error", error=str(err))
        return code
    finally:
        if tracer is not None:
            spans = [s.to_dict() for s in tracer.roots]
            try:
                obs.write_chrome_trace(trace_path, spans, tracer.run_id)
                _info(
                    f"wrote trace ({len(spans)} root span(s), "
                    f"run {tracer.run_id}) to {trace_path}"
                )
            except OSError as err:
                _error(f"error: could not write trace: {err}")
            obs.disable()
        if log is not None:
            log.emit("run.end", command=args.command, exit_code=code,
                     seconds=time.perf_counter() - start)
            if bridge is not None:
                obs.remove_logging_bridge(bridge)
            obs.set_log(None)
            log.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
