"""The analysis service: async job management over the batch engine.

:class:`AnalysisService` is the framework-free core of ``repro serve`` --
the HTTP layer (:mod:`repro.serve.http`) is a thin codec over it, and
tests drive it directly.  One service instance owns:

* a **two-level result cache**: the engine's in-memory LRU in front of an
  optional persistent :class:`~repro.serve.store.ResultStore`, both keyed
  by the canonical job content hash;
* a **coalescing map**: concurrent requests for the same key await one
  shared computation instead of executing it N times (the admission
  order is memory -> store -> in-flight -> execute);
* a **thread-pool executor** running the engine's pure
  :func:`~repro.engine.execute.execute_job` (sweeps run a private
  serial engine whose cache is layered over the shared store, so grid
  points persist too);
* a **lint admission gate**: structurally broken circuits are rejected
  before they reach the executor (provably infeasible pinned-clock jobs
  are additionally short-circuited inside the executor, as in batch).

Every job runs under a private per-thread tracer; its recorded span tree
is bridged into the job's progress-event stream (:mod:`repro.serve.events`)
for SSE consumers.  All service state lives on the event loop; only the
pure job execution leaves it, so no locks guard the maps.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import AsyncIterator, Callable, SupportsFloat, TypeVar, cast

from repro.engine.cache import ResultCache
from repro.engine.execute import execute_job
from repro.engine.jobspec import Job, JobResult, MinimizeJob, SweepJob, job_key
from repro.engine.runner import Engine
from repro.errors import ReproError
from repro.lint.graphdiag import diagnose
from repro.lint.rules import run_rules
from repro.obs import metrics as obs_metrics
from repro.obs.export import prometheus_text
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Tracer, use_tracer
from repro.serve.events import result_events
from repro.serve.protocol import job_from_request
from repro.serve.store import ResultStore, StoreBackedCache


_T = TypeVar("_T")


class ServiceUnavailableError(ReproError):
    """The service is draining and no longer admits jobs (HTTP 503)."""


def latency_percentiles(seconds: list[float]) -> dict[str, float]:
    """p50/p95/p99 of a latency sample, by linear interpolation.

    The histogram-less fallback for the /metrics percentiles (used until
    the ``serve_job_seconds`` histogram has observations).  Linear
    interpolation between the two straddling order statistics -- the
    earlier nearest-rank rounding (``int(round(q * last))``) collapsed
    p95/p99 onto the max for any sample smaller than ~10 points.
    """
    if not seconds:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    ordered = sorted(seconds)
    last = len(ordered) - 1

    def rank(q: float) -> float:
        position = q * last
        lower = int(position)
        upper = min(last, lower + 1)
        fraction = position - lower
        return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction

    return {"p50": rank(0.50), "p95": rank(0.95), "p99": rank(0.99)}


class ServiceStats:
    """Monotonic counters for one service instance, backed by a registry.

    Formerly a plain dataclass of ints; the storage now lives in a
    private :class:`~repro.obs.metrics.MetricsRegistry` so the /metrics
    exposition, the flat :meth:`AnalysisService.counters` dict and these
    attributes all read the same values.  Attribute syntax is preserved
    (``stats.requests += 1`` still works) via ``__getattr__``/
    ``__setattr__`` mapping each stat onto its registry counter.
    """

    # Real instance attributes (set via object.__setattr__ below), declared
    # so attribute reads resolve to their own types rather than through
    # the int-returning counter __getattr__.
    registry: MetricsRegistry
    job_seconds_sum: float
    latencies: deque

    #: attribute -> registry counter name (also the exposition name).
    _COUNTERS = {
        "requests": "serve_requests_total",
        "rejected": "serve_rejected_total",
        "executed": "serve_executed_total",
        "coalesced": "serve_coalesced_total",
        "memory_hits": "serve_memory_hits_total",
        "store_hits": "serve_store_hits_total",
        "completed": "serve_completed_total",
        "failed": "serve_failed_total",
        "lp_solves": "serve_lp_solves_total",
        "lp_pivots": "serve_lp_pivots_total",
    }

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        object.__setattr__(
            self, "registry", registry or MetricsRegistry(enabled=True)
        )
        #: Wall seconds summed over finished jobs (the histogram's _sum
        #: twin; kept as a plain attribute so the exposition has exactly
        #: one serve_job_seconds_sum series -- the histogram's).
        object.__setattr__(self, "job_seconds_sum", 0.0)
        #: Rolling window of recent end-to-end job latencies (seconds):
        #: the histogram-less percentile fallback.
        object.__setattr__(self, "latencies", deque(maxlen=512))

    def __getattr__(self, name: str) -> int:
        metric_name = ServiceStats._COUNTERS.get(name)
        if metric_name is None:
            raise AttributeError(name)
        metric = self.registry.find(metric_name)
        return int(metric.value) if metric is not None else 0

    def __setattr__(self, name: str, value: object) -> None:
        metric_name = ServiceStats._COUNTERS.get(name)
        if metric_name is None:
            object.__setattr__(self, name, value)
            return
        numeric = float(cast(SupportsFloat, value))
        self.registry.counter(metric_name).value = numeric


#: Terminal job statuses.
_TERMINAL = ("done", "failed", "rejected")


class JobRecord:
    """One submitted job: identity, lifecycle state, and its event feed."""

    def __init__(self, job_id: str, key: str, kind: str, label: str) -> None:
        self.id = job_id
        self.key = key
        self.kind = kind
        self.label = label
        self.status = "queued"
        self.source: str | None = None  # memory|store|coalesced|executed
        self.created = time.time()
        self.finished_at: float | None = None
        self.result: JobResult | None = None
        self.error: str | None = None
        self.events: list[dict] = []
        self.task: asyncio.Task | None = None
        self._signal = asyncio.Event()
        self.emit("queued", key=key[:12], kind=kind)

    # -- event feed -----------------------------------------------------
    def emit(self, name: str, **attrs: object) -> None:
        self.events.append(
            {"seq": len(self.events), "ts": time.time(), "event": name, **attrs}
        )
        self._signal.set()

    def extend_events(self, bridged: list[dict]) -> None:
        for event in bridged:
            self.events.append({"seq": len(self.events), **event})
        self._signal.set()

    async def stream_events(self, since: int = 0) -> AsyncIterator[dict]:
        """Yield event dicts from ``since`` onward until the job finishes."""
        index = max(0, since)
        while True:
            while index < len(self.events):
                yield self.events[index]
                index += 1
            if self.terminal:
                return
            self._signal.clear()
            if index < len(self.events):
                continue
            await self._signal.wait()

    # -- lifecycle ------------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.status in _TERMINAL

    def finish(self, result: JobResult, source: str) -> None:
        self.result = result
        self.source = source
        self.status = "done" if result.ok else "failed"
        self.error = result.error
        self.finished_at = time.time()
        self.emit(
            "finished",
            ok=result.ok,
            source=source,
            value=result.value,
            seconds=round(self.finished_at - self.created, 6),
        )

    def fail(self, error: str, status: str = "failed") -> None:
        self.error = error
        self.status = status
        self.finished_at = time.time()
        self.emit("failed" if status == "failed" else status, error=error)

    def to_dict(self, include_result: bool = True,
                include_events: bool = False) -> dict:
        data: dict = {
            "id": self.id,
            "key": self.key,
            "kind": self.kind,
            "label": self.label,
            "status": self.status,
            "source": self.source,
            "created": self.created,
            "finished_at": self.finished_at,
            "error": self.error,
        }
        if include_result and self.result is not None:
            data["result"] = self.result.to_dict()
            data["cached"] = self.result.cached
        if include_events:
            data["events"] = list(self.events)
        return data


class AnalysisService:
    """Coalescing, persistently cached execution of JSON job requests."""

    def __init__(
        self,
        store: ResultStore | None = None,
        workers: int = 2,
        memory_entries: int = 4096,
        lint: bool = True,
        trace_jobs: bool = True,
        retain_records: int = 1024,
    ) -> None:
        self.store = store
        self.workers = max(1, int(workers))
        self.lint = lint
        self.trace_jobs = trace_jobs
        self.retain_records = max(1, retain_records)
        self.stats = ServiceStats()
        #: Private registry holding the serve-layer series (stat counters,
        #: RED metrics per job kind) -- per-instance so concurrent services
        #: in one process report disjoint numbers.
        self.registry: MetricsRegistry = self.stats.registry
        # The compute layers (lp, cycle, maxplus, engine) record into the
        # *process-global* registry from the executor threads; turn it on
        # so /metrics can expose their solve-latency histograms too.
        obs_metrics.enable()
        self.started_at = time.time()
        self.draining = False
        self._memory = ResultCache(max_entries=memory_entries)
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        # Store I/O gets its own single worker: SQLite reads/writes must
        # leave the event loop (they block), but must not queue behind
        # long LP solves on the job executor either.  One worker also
        # serializes them, matching the store's internal lock.
        self._store_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-store"
        )
        self._inflight: dict[str, asyncio.Future] = {}
        self._records: OrderedDict[str, JobRecord] = OrderedDict()
        self._next_id = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, request: object) -> JobRecord:
        """Parse, admit and schedule one job request; returns its record.

        Raises :class:`~repro.serve.protocol.RequestError` on malformed
        requests and :class:`ServiceUnavailableError` while draining; a
        lint rejection produces a *record* in status ``rejected`` (the
        request was well-formed -- the circuit is the problem).
        """
        if self.draining:
            raise ServiceUnavailableError("service is draining")
        self.stats.requests += 1
        job = job_from_request(request)
        key = job_key(job)
        record = JobRecord(self._new_id(), key, job.kind, job.label)
        self._remember(record)
        findings, job = self._admit(job)
        if findings:
            self.stats.rejected += 1
            self.registry.counter(
                "serve_jobs_total", kind=job.kind, status="rejected"
            ).inc()
            record.fail(
                "; ".join(f"lint: {f}" for f in findings), status="rejected"
            )
            return record
        record.task = asyncio.create_task(self._run(record, job))
        return record

    async def submit_and_wait(self, request: object) -> JobRecord:
        record = await self.submit(request)
        await self.wait(record)
        return record

    async def wait(self, record: JobRecord) -> JobRecord:
        if record.task is not None:
            await asyncio.shield(record.task)
        return record

    def get_record(self, job_id: str) -> JobRecord | None:
        return self._records.get(job_id)

    def list_records(self, limit: int = 100) -> list[JobRecord]:
        records = list(self._records.values())
        return records[-limit:]

    async def lookup_result(self, key: str) -> JobResult | None:
        """Content-addressed lookup straight through memory + store."""
        hit = self._memory.get(key)
        if hit is not None:
            return hit
        if self.store is not None:
            return await self._store_call(self.store.get, key)
        return None

    async def _store_call(self, fn: Callable[..., _T], *args: object) -> _T:
        """Run one blocking store operation off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._store_executor, fn, *args)

    def _new_id(self) -> str:
        self._next_id += 1
        return f"j{self._next_id:06d}"

    def _remember(self, record: JobRecord) -> None:
        self._records[record.id] = record
        while len(self._records) > self.retain_records:
            oldest = next(iter(self._records.values()))
            if not oldest.terminal:
                break  # never forget a live job
            self._records.popitem(last=False)

    def _admit(self, job: Job) -> tuple[list[str], Job]:
        """Error-severity lint findings that bar a job, and the job to run.

        Mirrors the CLI pre-flight: the structural rule registry always
        runs; when the request pins or caps the clock, the constraint-graph
        diagnosis runs too -- on the circuit the engine will solve, so a
        minimize job's ``arc_override`` is applied -- and a provably
        infeasible job is rejected with a named certificate instead of
        burning an executor slot on an LP that must fail.  A minimize job
        that passes carries the diagnosis and its program to the engine
        (:attr:`MinimizeJob.preflight`), which then skips its own.
        """
        graph = getattr(job, "graph", None)
        if not self.lint or graph is None:
            return [], job
        options = getattr(job, "options", None)
        report = run_rules(graph, None, options)
        findings = [finding.message for finding in report.errors]
        if options is not None and options.pins_clock:
            minimize = job if isinstance(job, MinimizeJob) else None
            if minimize is not None:
                graph = minimize.solved_graph()
            diagnostics = diagnose(graph, options)
            if diagnostics.certificate is not None:
                findings.append(diagnostics.certificate.message)
            elif minimize is not None and not findings:
                job = replace(minimize, preflight=diagnostics)
        return findings, job

    # ------------------------------------------------------------------
    # Execution pipeline
    # ------------------------------------------------------------------
    async def _run(self, record: JobRecord, job: Job) -> None:
        try:
            result, source = await self._obtain(record, job)
        except asyncio.CancelledError:
            record.fail("cancelled")
            self._finish_metrics(record, job.kind, "error")
            raise
        except Exception as err:  # noqa: BLE001 - a record must terminate
            self.stats.failed += 1
            record.fail(f"{type(err).__name__}: {err}")
            self._finish_metrics(record, job.kind, "error")
            return
        if source == "executed":
            self.stats.executed += 1
            self.stats.lp_solves += int(result.metrics.get("lp_solves", 0))
            self.stats.lp_pivots += int(result.metrics.get("lp_iterations", 0))
        if result.ok:
            self.stats.completed += 1
        else:
            self.stats.failed += 1
        elapsed = time.time() - record.created
        self.stats.job_seconds_sum += elapsed
        self.stats.latencies.append(elapsed)
        self._finish_metrics(
            record, job.kind, "ok" if result.ok else "error", source=source
        )
        record.finish(result, source)

    def _finish_metrics(
        self,
        record: JobRecord,
        kind: str,
        status: str,
        source: str | None = None,
    ) -> None:
        """RED accounting for one finished job: rate, errors, duration."""
        self.registry.counter(
            "serve_jobs_total", kind=kind, status=status
        ).inc()
        if source is not None:
            self.registry.counter(
                "serve_results_total", kind=kind, source=source
            ).inc()
        elapsed = time.time() - record.created
        self.registry.histogram(
            "serve_job_seconds", kind=kind
        ).observe(elapsed)

    async def _obtain(
        self, record: JobRecord, job: Job
    ) -> tuple[JobResult, str]:
        key = record.key
        hit = self._memory.get(key)
        if hit is not None:
            self.stats.memory_hits += 1
            record.emit("cache_hit", layer="memory")
            hit.label = job.label or hit.label
            return hit, "memory"
        if self.store is not None:
            stored = await self._store_call(self.store.get, key)
            if stored is not None:
                self.stats.store_hits += 1
                record.emit("cache_hit", layer="store")
                self._memory.put(key, stored)
                stored.cached = True
                stored.label = job.label or stored.label
                return stored, "store"
        pending = self._inflight.get(key)
        if pending is not None:
            self.stats.coalesced += 1
            record.emit("coalesced")
            leader_result = await asyncio.shield(pending)
            copy = JobResult.from_dict(leader_result.to_dict())
            copy.cached = True
            copy.label = job.label or copy.label
            return copy, "coalesced"

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        record.emit("started", workers=self.workers)
        try:
            prepared = self._with_warm_start(job)
            result, spans = await loop.run_in_executor(
                self._executor, self._execute, prepared, key
            )
        except BaseException as err:
            if not future.done():
                future.set_exception(err)
                # Consume the exception even if no follower awaits it.
                future.exception()
            raise
        finally:
            del self._inflight[key]
        self._memory.put(key, result)
        record.extend_events(result_events(result, spans))
        # Release coalesced followers before persisting: the store write
        # blocks (SQLite), so it happens off-loop after the result is
        # already visible in memory.
        future.set_result(result)
        if self.store is not None:
            await self._store_call(self.store.put, key, result)
        return result, "executed"

    def _execute(self, job: Job, key: str) -> tuple[JobResult, list[dict]]:
        """Executor-thread entry: run one job under a private tracer."""
        tracer = Tracer(enabled=self.trace_jobs)
        tracer.reset(enabled=self.trace_jobs)
        with use_tracer(tracer):
            if isinstance(job, SweepJob):
                result = self._execute_sweep(job, key)
            else:
                result = execute_job(job, key)
        spans = list(result.spans)
        result.spans = []
        spans.extend(root.to_dict() for root in tracer.roots)
        return result, spans

    def _execute_sweep(self, job: SweepJob, key: str) -> JobResult:
        """Run a sweep through a private serial engine layered on the store.

        The engine's adaptive refinement deduplicates grid points through
        its cache; backing that cache with the shared store persists every
        solved grid point, so a repeated (or overlapping) sweep after a
        restart re-solves nothing.
        """
        if self.store is not None:
            cache: ResultCache = StoreBackedCache(self.store, max_entries=1024)
        else:
            cache = ResultCache(max_entries=1024)
        engine = Engine(jobs=1, cache=cache)
        result = engine._run_sweep_job(job)
        report = engine.report
        result.metrics.setdefault("lp_solves", report.lp_solves)
        result.metrics.setdefault("lp_iterations", report.lp_iterations)
        result.metrics.setdefault("stages", dict(report.stage_seconds))
        return result

    def _with_warm_start(self, job: Job) -> Job:
        # Identity hand-off kept as perfbench/traced.py's queue-entry hook.
        return job

    # ------------------------------------------------------------------
    # Introspection / shutdown
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def health(self) -> dict:
        counts: dict[str, int] = {}
        for record in self._records.values():
            counts[record.status] = counts.get(record.status, 0) + 1
        return {
            "ok": True,
            "status": "draining" if self.draining else "serving",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "workers": self.workers,
            "inflight": self.inflight,
            "jobs": counts,
            "store": self.store.path if self.store is not None else None,
        }

    def counters(self) -> dict[str, float]:
        """The flat counter dict exported at /metrics (and diffed by loadgen)."""
        stats = self.stats
        memory = self._memory.stats
        out: dict[str, float] = {
            "serve_requests_total": stats.requests,
            "serve_rejected_total": stats.rejected,
            "serve_executed_total": stats.executed,
            "serve_coalesced_total": stats.coalesced,
            "serve_memory_hits_total": stats.memory_hits,
            "serve_store_hits_total": stats.store_hits,
            "serve_completed_total": stats.completed,
            "serve_failed_total": stats.failed,
            "serve_lp_solves_total": stats.lp_solves,
            "serve_lp_pivots_total": stats.lp_pivots,
            "serve_job_seconds_wall_sum": round(stats.job_seconds_sum, 6),
            "serve_inflight": self.inflight,
            "serve_memory_entries": len(self._memory),
            "serve_uptime_seconds": round(time.time() - self.started_at, 3),
        }
        for name, value in self.latency_summary().items():
            out[f"serve_latency_seconds_{name}"] = round(value, 6)
        if self.store is not None:
            store = self.store.stats
            out["serve_store_lookup_hits_total"] = store.hits
            out["serve_store_writes_total"] = store.writes
            out["serve_store_corrupt_dropped_total"] = store.corrupt_dropped
            out["serve_store_entries"] = len(self.store)
        return out

    def job_latency_histogram(self) -> Histogram | None:
        """The ``serve_job_seconds`` histogram aggregated across job kinds.

        Per-kind instruments share one bucket scheme, so aggregation is a
        vector add -- the same ``sum by (le)`` a Prometheus server would
        compute from the exposition.
        """
        merged: Histogram | None = None
        for metric in self.registry.collect():
            if metric.name != "serve_job_seconds" or not isinstance(
                metric, Histogram
            ):
                continue
            if merged is None:
                merged = Histogram("serve_job_seconds", (), bounds=metric.bounds)
            for i, count in enumerate(metric.counts):
                merged.counts[i] += count
            merged.sum += metric.sum
            merged.count += metric.count
        return merged

    def latency_summary(self) -> dict[str, float]:
        """p50/p95/p99 job latency, bucket-derived when possible.

        Quantiles come from the ``serve_job_seconds`` histogram (accurate
        to one bucket width, covers the full history); the sorted-deque
        :func:`latency_percentiles` remains as the histogram-less
        fallback (e.g. a registry reset mid-flight).
        """
        merged = self.job_latency_histogram()
        if merged is not None and merged.count:
            return {
                "p50": merged.quantile(0.50),
                "p95": merged.quantile(0.95),
                "p99": merged.quantile(0.99),
            }
        return latency_percentiles(list(self.stats.latencies))

    def metrics_text(self) -> str:
        """Prometheus exposition: native histograms plus the flat counters.

        Three blocks, in order: the service's private registry (stat
        counters, RED series, the ``serve_job_seconds{kind=...}``
        ``_bucket``/``_sum``/``_count`` histograms), the process-global
        registry (``lp_solve_seconds``, ``cycle_*``, ``engine_*``,
        ``maxplus_*`` recorded by the compute layers on the executor
        threads), and the legacy flat counters -- minus any name the
        registries already rendered, so every series appears exactly once.
        """
        rendered = {metric.name for metric in self.registry.collect()}
        rendered.update(
            metric.name for metric in obs_metrics.get_registry().collect()
        )
        extra = {
            key: value
            for key, value in self.counters().items()
            if key not in rendered
        }
        blocks = [
            self.registry.to_prometheus(),
            obs_metrics.get_registry().to_prometheus(),
            prometheus_text([], extra=extra),
        ]
        return "".join(
            block if block.endswith("\n") else block + "\n"
            for block in blocks
            if block
        )

    async def drain(self, timeout: float | None = None) -> None:
        """Stop admitting jobs, finish in-flight work, flush the store."""
        self.draining = True
        live = [
            record.task
            for record in self._records.values()
            if record.task is not None and not record.task.done()
        ]
        if live:
            done, pending = await asyncio.wait(live, timeout=timeout)
            for task in pending:
                task.cancel()
        if self.store is not None:
            await self._store_call(self.store.flush)
        # The pool shutdown joins worker threads; hop to a helper thread
        # so in-flight cancellations cannot stall the loop.
        await asyncio.to_thread(
            self._executor.shutdown, wait=True, cancel_futures=True
        )

    async def close(self) -> None:
        await self.drain(timeout=0.0)
        if self.store is not None:
            await self._store_call(self.store.close)
        self._store_executor.shutdown(wait=False)
