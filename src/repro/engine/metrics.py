"""Per-stage instrumentation for the batch engine.

Every executed job reports a flat metrics dict (wall time, per-stage
seconds, LP solve/pivot counts, slide sweeps); :class:`MetricsAggregator`
folds those into an :class:`EngineReport` -- the structured summary the
CLI prints after a batch run and that benchmarks consume directly.

Stage names used by the executors:

* ``constraint_gen`` -- building the SMO constraint system (LP rows or the
  max-plus system);
* ``lp_solve``       -- time inside the LP backend for the Tc pass;
* ``compact``        -- the compact tie-break pass (min-cost flow on the
  cycle solver's graph, or its simplex fallback);
* ``slide``          -- the Algorithm-MLP departure slide / fixpoint
  iteration;
* ``analysis``       -- fixed-schedule verification (analyze jobs, and the
  verify pass of minimize jobs when enabled).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs import metrics as obs_metrics
from repro.obs import trace

if TYPE_CHECKING:
    from repro.engine.serial import PoolStats

#: Canonical stage ordering for reports.
STAGES = ("constraint_gen", "lp_solve", "compact", "slide", "analysis")


class StageTimer:
    """Accumulate named wall-clock stages; used by the job executors.

    Each timed stage also opens a :mod:`repro.obs.trace` span of the same
    name, so stage timings show up in the hierarchical trace for free;
    when tracing is disabled the span is the shared no-op singleton.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def add(self, stage: str, seconds: float) -> None:
        self.seconds[stage] = self.seconds.get(stage, 0.0) + max(0.0, seconds)

    class _Span:
        def __init__(self, timer: "StageTimer", stage: str) -> None:
            self.timer = timer
            self.stage = stage

        def __enter__(self) -> "StageTimer._Span":
            self._obs = trace.span(self.stage)
            self._obs.__enter__()
            self.start = time.perf_counter()
            return self

        def __exit__(self, *exc: object) -> None:
            elapsed = time.perf_counter() - self.start
            self.timer.add(self.stage, elapsed)
            self._obs.__exit__(None, None, None)
            obs_metrics.observe("engine_stage_seconds", elapsed, stage=self.stage)

    def span(self, stage: str) -> "StageTimer._Span":
        """Context manager timing one stage: ``with timer.span("lp_solve"):``."""
        return self._Span(self, stage)


def job_metrics(
    wall_seconds: float,
    stages: dict[str, float] | None = None,
    lp_solves: int = 0,
    lp_iterations: int = 0,
    slide_sweeps: int = 0,
    refactorizations: int = 0,
    compact_fallbacks: int = 0,
) -> dict:
    """The flat metrics dict attached to a :class:`~repro.engine.jobspec.JobResult`.

    ``refactorizations`` counts basis refactorizations inside the revised
    simplex backend; ``compact_fallbacks`` counts compact passes the
    graph could not certify, so a simplex answered them.
    """
    return {
        "wall_seconds": wall_seconds,
        "stages": dict(stages or {}),
        "lp_solves": lp_solves,
        "lp_iterations": lp_iterations,
        "slide_sweeps": slide_sweeps,
        "refactorizations": refactorizations,
        "compact_fallbacks": compact_fallbacks,
    }


@dataclass
class EngineReport:
    """Aggregated metrics for one engine run (or an engine's lifetime)."""

    jobs: int = 0
    succeeded: int = 0
    failed: int = 0
    from_cache: int = 0
    #: cached/fanned-out results that carry a failure (a within-batch
    #: duplicate of a job that failed this run; the cache itself never
    #: stores failed results).
    cached_failed: int = 0
    executed: int = 0
    retries: int = 0
    wall_seconds: float = 0.0
    stage_seconds: dict[str, float] = field(default_factory=dict)
    lp_solves: int = 0
    lp_iterations: int = 0
    slide_sweeps: int = 0
    refactorizations: int = 0
    compact_fallbacks: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1
    #: pool failover accounting (worker deaths and per-attempt timeouts);
    #: soft_failures are in-job exceptions the worker survived.
    crashes: int = 0
    timeouts: int = 0
    soft_failures: int = 0
    #: persistent result-store accounting (zero unless the cache is a
    #: :class:`repro.serve.store.StoreBackedCache`).
    store_hits: int = 0
    store_writes: int = 0
    store_corrupt_dropped: int = 0
    store_path: str = ""

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def format(self) -> str:
        """A printable multi-line summary (the CLI's metrics block)."""
        cached_part = f"{self.from_cache} from cache"
        if self.cached_failed:
            cached_part += f" ({self.cached_failed} failed)"
        lines = [
            f"jobs: {self.jobs} total, {self.succeeded} ok, "
            f"{self.failed} failed, {cached_part}, "
            f"{self.executed} executed ({self.retries} retries, "
            f"{self.workers} worker{'s' if self.workers != 1 else ''})",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"({100.0 * self.cache_hit_rate:.1f}%)",
            f"lp: {self.lp_solves} solves, {self.lp_iterations} LP "
            f"iterations; slide: {self.slide_sweeps} sweeps",
        ]
        if self.compact_fallbacks:
            lines.append(
                f"compact: {self.compact_fallbacks} passes fell back to "
                "the simplex (see each result's payload['compact'])"
            )
        if self.crashes or self.timeouts or self.soft_failures:
            lines.append(
                f"pool failover: {self.crashes} crashes, "
                f"{self.timeouts} timeouts, "
                f"{self.soft_failures} soft failures"
            )
        if self.store_path:
            lines.append(
                f"store: {self.store_hits} hits, {self.store_writes} writes"
                + (
                    f", {self.store_corrupt_dropped} corrupt rows dropped"
                    if self.store_corrupt_dropped
                    else ""
                )
                + f" ({self.store_path})"
            )
        known = [s for s in STAGES if s in self.stage_seconds]
        extra = sorted(set(self.stage_seconds) - set(known))
        parts = [
            f"{name} {1000.0 * self.stage_seconds[name]:.2f} ms"
            for name in known + extra
        ]
        if parts:
            lines.append("stage time: " + ", ".join(parts))
        lines.append(f"wall time in jobs: {1000.0 * self.wall_seconds:.2f} ms")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


class MetricsAggregator:
    """Fold per-job metrics dicts into a running :class:`EngineReport`."""

    def __init__(self) -> None:
        self._report = EngineReport()

    def add_result(self, ok: bool, cached: bool, attempts: int, metrics: dict) -> None:
        r = self._report
        r.jobs += 1
        r.succeeded += 1 if ok else 0
        r.failed += 0 if ok else 1
        if cached:
            r.from_cache += 1
            if not ok:
                r.cached_failed += 1
        else:
            r.executed += 1
            r.retries += max(0, attempts - 1)
            r.wall_seconds += float(metrics.get("wall_seconds", 0.0))
            for stage, seconds in (metrics.get("stages") or {}).items():
                r.stage_seconds[stage] = r.stage_seconds.get(stage, 0.0) + seconds
            r.lp_solves += int(metrics.get("lp_solves", 0))
            r.lp_iterations += int(metrics.get("lp_iterations", 0))
            r.slide_sweeps += int(metrics.get("slide_sweeps", 0))
            r.refactorizations += int(metrics.get("refactorizations", 0))
            r.compact_fallbacks += int(metrics.get("compact_fallbacks", 0))

    def set_cache_stats(self, hits: int, misses: int) -> None:
        self._report.cache_hits = hits
        self._report.cache_misses = misses

    def set_workers(self, workers: int) -> None:
        self._report.workers = workers

    def set_pool_stats(self, stats: PoolStats) -> None:
        """Copy failover counters off a :class:`~repro.engine.serial.PoolStats`."""
        self._report.crashes = stats.crashes
        self._report.timeouts = stats.timeouts
        self._report.soft_failures = stats.soft_failures

    def set_store_stats(
        self, path: str, hits: int, writes: int, corrupt_dropped: int
    ) -> None:
        """Record persistent-store counters (StoreBackedCache engines only)."""
        self._report.store_path = path
        self._report.store_hits = hits
        self._report.store_writes = writes
        self._report.store_corrupt_dropped = corrupt_dropped

    @property
    def report(self) -> EngineReport:
        return self._report
