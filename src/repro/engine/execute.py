"""Worker-side job execution: turn a job into a plain-data JobResult.

This module is imported by pool worker processes, so it must stay free of
engine-level state: ``execute_job`` is a pure function from a job to a
:class:`~repro.engine.jobspec.JobResult`.  Exceptions raised by the
underlying solvers are converted into failed results (soft failures); only
process death or a timeout counts as a crash, which the pool handles.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from repro.core.analysis import analyze
from repro.core.constraints import build_program
from repro.core.mlp import MLPOptions, minimize_cycle_time
from repro.engine.jobspec import (
    AnalyzeJob,
    BaselineJob,
    FaultJob,
    Job,
    JobResult,
    MinimizeJob,
    job_key,
)
from repro.engine.metrics import StageTimer, job_metrics
from repro.errors import ReproError
from repro.lint.graphdiag import diagnose
from repro.obs import metrics, trace
from repro.obs.events import emit


def execute_job(job: Job, key: str | None = None) -> JobResult:
    """Execute one job, catching solver errors into a failed result."""
    key = key or job_key(job)
    start = time.perf_counter()
    try:
        executor = _EXECUTORS[job.kind]
    except KeyError:
        return JobResult(
            key=key,
            kind=getattr(job, "kind", "?"),
            ok=False,
            error=f"no executor for job kind {getattr(job, 'kind', '?')!r}",
            label=getattr(job, "label", ""),
        )
    tracer = trace.get_tracer()
    with tracer.span(
        f"job.{job.kind}", key=key[:12], label=job.label
    ) as job_span:
        try:
            result = executor(job, key)
        except ReproError as err:
            result = JobResult(
                key=key,
                kind=job.kind,
                ok=False,
                error=f"{type(err).__name__}: {err}",
                label=job.label,
            )
        job_span.set("ok", result.ok)
    # In a pool worker the job span is a *root* of the worker's tracer;
    # detach and ship it so the parent engine can graft it under the live
    # batch span.  In-process (serial pool) the span already nested live.
    if job_span and tracer.take_root(job_span):
        result.spans = [job_span.to_dict()]
    result.metrics.setdefault("stages", {})
    result.metrics["wall_seconds"] = time.perf_counter() - start
    if metrics.is_enabled():
        metrics.inc(
            "engine_jobs_total",
            kind=result.kind,
            ok="true" if result.ok else "false",
        )
        metrics.observe(
            "engine_job_seconds", result.metrics["wall_seconds"], kind=result.kind
        )
    return result


def _execute_minimize(job: MinimizeJob, key: str) -> JobResult:
    graph = job.graph
    if job.arc_override is not None:
        src, dst, delay = job.arc_override
        graph = graph.with_arc_delay(src, dst, delay)
    mlp = job.mlp
    if job.kernel is not None:
        # Pure performance hint: redirect the slide onto the requested
        # fixpoint kernel without disturbing the (cache-relevant) options.
        mlp = replace(mlp or MLPOptions(), kernel=job.kernel)
    smo = None
    lint_payload = None
    if job.options is not None and job.options.pins_clock:
        # Pre-flight: a negative cycle in the difference-constraint graph
        # proves the LP infeasible before any simplex runs; the certificate
        # ships in the payload either way, and the built program is reused
        # by the solve below when the job survives the check.
        with trace.span("lint.preflight") as lint_span:
            smo = build_program(graph, job.options)
            diagnostics = diagnose(graph, job.options, smo=smo)
            lint_span.set("feasible", diagnostics.feasible)
        lint_payload = diagnostics.to_dict()
        if diagnostics.certificate is not None:
            certificate = diagnostics.certificate
            emit(
                "lint.infeasible",
                level="warning",
                label=job.label,
                kind=certificate.kind,
                constraints=list(certificate.constraints),
            )
            return JobResult(
                key=key,
                kind=job.kind,
                ok=False,
                error="lint: " + certificate.message,
                payload={"lint": lint_payload},
                metrics=job_metrics(wall_seconds=0.0, lp_solves=0),
                label=job.label,
            )
    result = minimize_cycle_time(graph, job.options, mlp, smo=smo)
    stages = dict(result.extra.get("stages", {}))
    payload = {
        "period": result.period,
        "schedule": result.schedule.as_dict(),
        "departures": dict(result.departures),
        "slide_sweeps": result.slide_sweeps,
        "slide_method": result.slide_method,
        "slide_residual": result.slide_residual,
        "feasible": result.feasible,
    }
    if lint_payload is not None:
        payload["lint"] = lint_payload
    sanitize = result.extra.get("sanitize")
    if sanitize is not None:
        payload["sanitize"] = sanitize.to_dict()
    compact = result.extra.get("compact")
    if isinstance(compact, dict):
        payload["compact"] = compact
    return JobResult(
        key=key,
        kind=job.kind,
        ok=True,
        value=result.period,
        payload=payload,
        metrics=job_metrics(
            wall_seconds=0.0,  # overwritten by execute_job
            stages=stages,
            lp_solves=int(result.extra.get("lp_solves", 1)),
            lp_iterations=int(result.extra.get("lp_iterations", 0)),
            slide_sweeps=result.slide_sweeps,
            refactorizations=int(result.extra.get("refactorizations", 0)),
            compact_fallbacks=int(
                isinstance(compact, dict) and not compact["used"]
            ),
        ),
        label=job.label,
    )


def _execute_analyze(job: AnalyzeJob, key: str) -> JobResult:
    timer = StageTimer()
    with timer.span("analysis"):
        report = analyze(job.graph, job.schedule, job.options)
    worst = report.worst_slack
    payload = {
        "feasible": report.feasible,
        "worst_slack": None if worst in (float("inf"), float("-inf")) else worst,
        "clock_violations": list(report.clock_violations),
        "divergent_cycle": report.divergent_cycle,
        "departures": report.departures(),
        "total_borrowed": report.total_borrowed,
    }
    return JobResult(
        key=key,
        kind=job.kind,
        ok=True,
        value=payload["worst_slack"],
        payload=payload,
        metrics=job_metrics(
            wall_seconds=0.0,
            stages=timer.seconds,
            slide_sweeps=report.iterations,
        ),
        label=job.label,
    )


def _execute_baseline(job: BaselineJob, key: str) -> JobResult:
    # The baselines load with the first baseline job; sweeps never run one.
    from repro.baselines.binary_search import binary_search_minimize
    from repro.baselines.borrowing import borrowing_minimize
    from repro.baselines.edge_triggered import edge_triggered_minimize
    from repro.baselines.nrip import nrip_minimize

    mlp = job.mlp or MLPOptions(verify=False)
    options = job.options
    stages: dict[str, float] = {}
    lp_solves = 0
    lp_iterations = 0
    if job.algorithm == "mlp":
        result = minimize_cycle_time(job.graph, options, mlp)
        period = result.period
        stages = dict(result.extra.get("stages", {}))
        lp_solves = int(result.extra.get("lp_solves", 1))
        lp_iterations = int(result.extra.get("lp_iterations", 0))
    elif job.algorithm == "nrip":
        period = nrip_minimize(job.graph, options=options, mlp=mlp).period
    elif job.algorithm == "borrowing-1":
        period = borrowing_minimize(job.graph, 1, options).period
    elif job.algorithm == "borrowing":
        period = borrowing_minimize(job.graph, 40, options).period
    elif job.algorithm == "binary-search":
        period = binary_search_minimize(job.graph, options=options)
    else:  # "edge-triggered" -- membership enforced by BaselineJob
        period = edge_triggered_minimize(job.graph, options, mlp).period
    return JobResult(
        key=key,
        kind=job.kind,
        ok=True,
        value=period,
        payload={"algorithm": job.algorithm, "period": period},
        metrics=job_metrics(
            wall_seconds=0.0,
            stages=stages,
            lp_solves=lp_solves,
            lp_iterations=lp_iterations,
        ),
        label=job.label,
    )


def _execute_fault(job: FaultJob, key: str) -> JobResult:
    armed = True
    if job.crash_once_path is not None:
        if os.path.exists(job.crash_once_path):
            armed = False  # a previous attempt already failed once
        else:
            with open(job.crash_once_path, "w", encoding="utf-8") as handle:
                handle.write("armed\n")
    if job.mode == "crash" and armed:
        os._exit(17)  # kill the worker without cleanup -- a hard crash
    if job.mode == "hang" and armed:
        time.sleep(job.seconds)
    if job.mode == "error":
        raise ReproError("fault injection: soft failure")
    if job.mode == "siginfo":
        # Report this process's signal dispositions -- lets tests verify
        # from *inside* a pool worker that SIGINT is ignored (the master
        # owns interrupt handling) while SIGTERM stays terminable.
        import signal as _signal

        return JobResult(
            key=key,
            kind=job.kind,
            ok=True,
            value=float(os.getpid()),
            payload={
                "pid": os.getpid(),
                "sigint_ignored": (
                    _signal.getsignal(_signal.SIGINT) is _signal.SIG_IGN
                ),
                "sigterm_default": (
                    _signal.getsignal(_signal.SIGTERM) is _signal.SIG_DFL
                ),
            },
            metrics=job_metrics(wall_seconds=0.0),
            label=job.label,
        )
    return JobResult(
        key=key,
        kind=job.kind,
        ok=True,
        value=job.value,
        payload={"mode": job.mode},
        metrics=job_metrics(wall_seconds=0.0),
        label=job.label,
    )


_EXECUTORS = {
    "minimize": _execute_minimize,
    "analyze": _execute_analyze,
    "baseline": _execute_baseline,
    "fault": _execute_fault,
}
