"""The public engine API: :class:`Engine`, :func:`run_jobs`, :func:`map_sweep`.

The engine composes the three mechanical pieces -- canonical job hashing
(:mod:`~repro.engine.jobspec`), the result cache (:mod:`~repro.engine.cache`)
and the worker pool (:mod:`~repro.engine.pool`) -- into one execution layer:

1. every submitted job is keyed by its canonical content hash;
2. keys already in the cache are served without executing anything;
3. the remaining unique keys are executed by the pool (serial for
   ``jobs=1``, a process pool otherwise) in deterministic order;
4. per-stage metrics are aggregated into an :class:`EngineReport`.

``map_sweep`` layers an adaptive evaluation strategy on top: because the
optimal cycle time is a *convex piecewise-linear* function of any single
delay (LP theory; the basis of the paper's Fig. 7), a grid point whose
span passes the chord test can be filled by exact interpolation instead of
an LP solve.  Interval endpoints are re-requested each refinement wave and
served from the cache, so a sweep both solves fewer LPs than it has grid
points and records cache hits for the duplicated breakpoint evaluations.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.mlp import MLPOptions
from repro.core.parametric import SweepPoint, SweepResult, _fit_segments
from repro.engine.cache import ResultCache
from repro.engine.jobspec import Job, JobResult, MinimizeJob, SweepJob, job_key
from repro.engine.metrics import EngineReport, MetricsAggregator
from repro.engine.serial import make_pool
from repro.errors import ReproError
from repro.obs import metrics, trace


class Engine:
    """A cached, parallel batch executor for timing jobs.

    ``jobs`` is the worker count (1 = in-process serial execution);
    ``timeout`` is the per-job wall-clock limit in seconds (process pool
    only); ``retries`` is the number of extra attempts after a worker
    crash or timeout.  ``cache_path`` enables the on-disk JSON store --
    call :meth:`save_cache` (or use the engine as a context manager) to
    persist it.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        cache_path: str | None = None,
        max_cache_entries: int = 4096,
        timeout: float | None = None,
        retries: int = 1,
    ) -> None:
        self.jobs = max(1, int(jobs))
        # `cache or ...` would discard an *empty* cache (it has __len__).
        if cache is None:
            cache = ResultCache(max_entries=max_cache_entries, path=cache_path)
        self.cache = cache
        self.pool = make_pool(self.jobs, timeout=timeout, retries=retries)
        self._aggregator = MetricsAggregator()

    # ------------------------------------------------------------------
    def run_jobs(self, jobs: Sequence[Job]) -> list[JobResult]:
        """Execute a batch of jobs; results come back in submission order.

        Duplicate jobs inside one batch are executed once and fanned out;
        jobs whose canonical key is already cached are served from the
        cache.  :class:`SweepJob` entries are expanded via
        :meth:`map_sweep` rather than executed monolithically.
        """
        results: list[JobResult | None] = [None] * len(jobs)
        keys: list[str | None] = [None] * len(jobs)
        to_run: list[tuple[Job, str]] = []
        first_index: dict[str, int] = {}
        duplicates: dict[str, list[int]] = {}

        with trace.span(
            "engine.run_jobs", jobs=len(jobs), workers=self.jobs
        ) as batch_span:
            for i, job in enumerate(jobs):
                if isinstance(job, SweepJob):
                    results[i] = self._run_sweep_job(job)
                    continue
                key = job_key(job)
                keys[i] = key
                if key in first_index or key in duplicates:
                    duplicates.setdefault(key, []).append(i)
                    continue
                hit = self.cache.get(key)
                if hit is not None:
                    hit.label = job.label or hit.label
                    results[i] = hit
                else:
                    first_index[key] = i
                    to_run.append((job, key))

            executed = self.pool.run(to_run)
            for (job, key), result in zip(to_run, executed):
                # Graft span trees recorded by pool workers under the live
                # batch span (serial execution nested them directly), and
                # fold worker metric snapshots into the live registry.
                if result.spans:
                    trace.attach(result.spans)
                    result.spans = []
                if result.obs_metrics:
                    metrics.merge(result.obs_metrics)
                    result.obs_metrics = []
                self.cache.put(key, result)
                results[first_index[key]] = result
            batch_span.set("executed", len(to_run))
            batch_span.set("cached", len(jobs) - len(to_run))

        # Fan executed/cached results out to within-batch duplicates.
        for key, indices in duplicates.items():
            source = (
                results[first_index[key]]
                if key in first_index
                else self.cache.get(key)
            )
            if source is None:  # pragma: no cover - first occurrence always set
                raise ReproError(f"internal error: unresolved batch key {key}")
            for idx in indices:
                copy = JobResult.from_dict(source.to_dict())
                copy.cached = True
                copy.label = jobs[idx].label or copy.label
                results[idx] = copy

        final = [r for r in results if r is not None]
        if len(final) != len(jobs):  # pragma: no cover - defensive
            raise ReproError("internal error: lost results in run_jobs")
        for result in final:
            self._aggregator.add_result(
                ok=result.ok,
                cached=result.cached,
                attempts=result.attempts,
                metrics=result.metrics,
            )
        return final

    # ------------------------------------------------------------------
    def map_sweep(self, job: SweepJob, value_tol: float = 1e-7) -> SweepResult:
        """Evaluate a parametric sweep adaptively through the cache/pool.

        Exploits convexity of Tc(delay): an interval whose midpoint lies on
        the endpoint chord (within ``value_tol``, scaled by the local
        magnitude) is exactly linear, so its interior grid points are
        filled by interpolation without solving.  Refinement proceeds in
        waves; each wave's jobs run concurrently through the pool, and
        endpoint re-requests across waves hit the cache.  The evaluation
        order -- and therefore the result -- is independent of the worker
        count.
        """
        sweep_span = trace.span(
            "engine.map_sweep",
            src=job.src,
            dst=job.dst,
            grid_points=len(job.grid),
        )
        with sweep_span:
            return self._map_sweep(job, value_tol, sweep_span)

    def _map_sweep(
        self, job: SweepJob, value_tol: float, sweep_span: object
    ) -> SweepResult:
        grid = [float(x) for x in job.grid]
        if len(grid) < 2:
            raise ReproError("sweep needs at least two grid points")
        for a, b in zip(grid, grid[1:]):
            if b <= a:
                raise ReproError("sweep grid must be strictly increasing")
        mlp = job.mlp
        if mlp is None:
            # The sweep consumes only the optimal period, so skip both the
            # verify pass and the compact tie-break LP: one Tc solve per
            # point, on the default (cycle-engine) route.
            mlp = MLPOptions(verify=False, compact=False)

        n = len(grid)
        values: dict[int, float] = {}
        solved: set[int] = set()
        intervals = [(0, n - 1)] if n > 2 else []
        spans: list[tuple[int, int]] = []

        def evaluate_wave(indices: list[int]) -> None:
            batch = [
                MinimizeJob(
                    graph=job.graph,
                    options=job.options,
                    mlp=mlp,
                    arc_override=(job.src, job.dst, grid[i]),
                    label=f"{job.src}->{job.dst}={grid[i]:g}",
                )
                for i in indices
            ]
            for i, result in zip(indices, self.run_jobs(batch)):
                if not result.ok:
                    raise ReproError(
                        f"sweep evaluation failed at {grid[i]:g}: "
                        f"{result.error}"
                    )
                values[i] = float(result.value)
                if not result.cached:
                    solved.add(i)

        evaluate_wave([0, n - 1])
        while intervals:
            requests: list[int] = []
            seen: set[int] = set()
            for a, b in intervals:
                for i in (a, (a + b) // 2, b):
                    if i not in seen:
                        seen.add(i)
                        requests.append(i)
            evaluate_wave(requests)
            next_intervals: list[tuple[int, int]] = []
            for a, b in intervals:
                mid = (a + b) // 2
                fa, fm, fb = values[a], values[mid], values[b]
                chord = fa + (fb - fa) * (grid[mid] - grid[a]) / (
                    grid[b] - grid[a]
                )
                tol = value_tol * max(1.0, abs(fa), abs(fb))
                if abs(fm - chord) <= tol:
                    spans.append((a, b))  # exactly linear by convexity
                else:
                    for lo, hi in ((a, mid), (mid, b)):
                        if hi - lo >= 2:
                            next_intervals.append((lo, hi))
            intervals = next_intervals

        # Fill interior points of proven-linear spans by interpolation.
        for a, b in spans:
            fa, fb = values[a], values[b]
            for i in range(a + 1, b):
                if i not in values:
                    values[i] = fa + (fb - fa) * (grid[i] - grid[a]) / (
                        grid[b] - grid[a]
                    )

        missing = [i for i in range(n) if i not in values]
        if missing:  # pragma: no cover - refinement covers every index
            evaluate_wave(missing)

        points = [SweepPoint(grid[i], values[i]) for i in range(n)]
        sweep_span.set("solved", len(solved))
        sweep_span.set("interpolated", n - len(solved))
        return SweepResult(
            points=points, segments=_fit_segments(points, job.slope_tol)
        )

    def _run_sweep_job(self, job: SweepJob) -> JobResult:
        key = job_key(job)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        try:
            sweep = self.map_sweep(job)
        except ReproError as err:
            return JobResult(
                key=key,
                kind=job.kind,
                ok=False,
                error=str(err),
                label=job.label,
            )
        payload = {
            "points": [[p.parameter, p.period] for p in sweep.points],
            "segments": [
                {
                    "start": s.start,
                    "end": s.end,
                    "slope": s.slope,
                    "intercept": s.intercept,
                }
                for s in sweep.segments
            ],
            "breakpoints": sweep.breakpoints,
        }
        result = JobResult(
            key=key,
            kind=job.kind,
            ok=True,
            value=float(len(sweep.segments)),
            payload=payload,
            label=job.label,
        )
        self.cache.put(key, result)
        return result

    # ------------------------------------------------------------------
    @property
    def report(self) -> EngineReport:
        """Aggregated metrics: jobs, cache accounting, per-stage times."""
        stats = self.cache.stats
        self._aggregator.set_cache_stats(stats.hits, stats.misses)
        self._aggregator.set_workers(getattr(self.pool, "workers", 1))
        pool_stats = getattr(self.pool, "stats", None)
        if pool_stats is not None:
            self._aggregator.set_pool_stats(pool_stats)
        store = getattr(self.cache, "store", None)
        if store is not None:
            store_stats = store.stats
            self._aggregator.set_store_stats(
                path=str(store.path),
                hits=store_stats.hits,
                writes=store_stats.writes,
                corrupt_dropped=store_stats.corrupt_dropped,
            )
        return self._aggregator.report

    def save_cache(self) -> str | None:
        """Persist the cache when a disk path is configured."""
        if self.cache.path:
            return self.cache.save()
        return None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.save_cache()
        self.pool.close()


# ----------------------------------------------------------------------
# Module-level conveniences
# ----------------------------------------------------------------------
def run_jobs(
    jobs: Sequence[Job],
    parallel: int = 1,
    cache: ResultCache | None = None,
    timeout: float | None = None,
    retries: int = 1,
) -> list[JobResult]:
    """One-shot batch execution with a throwaway engine."""
    engine = Engine(
        jobs=parallel, cache=cache, timeout=timeout, retries=retries
    )
    return engine.run_jobs(jobs)


def map_sweep(
    job: SweepJob,
    parallel: int = 1,
    cache: ResultCache | None = None,
    value_tol: float = 1e-7,
) -> SweepResult:
    """One-shot adaptive sweep with a throwaway engine."""
    engine = Engine(jobs=parallel, cache=cache)
    return engine.map_sweep(job, value_tol=value_tol)
