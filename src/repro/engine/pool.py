"""Process pool for the batch engine: timeouts, crash retry, ordered results.

Design goals, in priority order:

1. **Deterministic output.**  Results are returned in submission order, and
   each job is executed by the same pure function
   (:func:`repro.engine.execute.execute_job`) regardless of worker count,
   so a parallel run is bit-identical to a serial run.
2. **Fault isolation.**  Each worker owns a private task queue and result
   pipe; a worker that dies mid-job (segfault, ``os._exit``, OOM kill)
   corrupts nothing shared.  The master detects the death via the process
   sentinel, respawns a fresh worker in the slot, and retries the job up to
   ``retries`` extra attempts before reporting a failed result.
3. **Bounded latency.**  An optional per-job ``timeout`` (seconds) applies
   to every attempt; a worker that exceeds it is terminated and treated
   like a crash.

Soft failures -- exceptions raised *inside* a job, which the worker
survives -- are returned as failed results immediately, without retry:
they are deterministic properties of the job, not of the run.

The serial fallback (:class:`~repro.engine.serial.SerialPool`) executes
jobs in-process with the same interface; it cannot enforce timeouts or
survive hard crashes, which is why fault-injection tests always use the
process pool.  This module loads only when a pool of more than one
worker is made (:func:`~repro.engine.serial.make_pool`).
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _wait_connections
from types import FrameType
from typing import Any, Callable, Union

from repro.engine.execute import execute_job
from repro.engine.jobspec import Job, JobResult
from repro.engine.serial import PoolStats, SerialPool, make_pool
from repro.obs import metrics, trace

__all__ = ["PoolStats", "SerialPool", "WorkerPool", "make_pool"]

#: What signal.signal accepts and returns (mirrors typeshed's _HANDLER).
_SigHandler = Union[Callable[[int, "FrameType | None"], Any], int,
                    signal.Handlers, None]

#: How long (seconds) the master sleeps between health checks when no
#: result arrives and no deadline is pending.
_POLL_INTERVAL = 0.1


def _preferred_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _worker_main(
    task_queue: multiprocessing.queues.Queue,
    conn: Connection,
    trace_enabled: bool = False,
    metrics_enabled: bool = False,
) -> None:
    """Worker loop: execute jobs from the queue until the ``None`` sentinel."""
    # Ctrl-C in a terminal delivers SIGINT to the whole foreground process
    # group -- master *and* workers.  The master owns interrupt handling
    # (it drains and terminates workers deliberately); a worker that also
    # dies from the same keystroke would be misread as a crash and
    # pointlessly retried during teardown.  SIGTERM keeps its default
    # disposition so ``Process.terminate()`` still works.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    # A forked worker inherits the parent tracer's open spans and roots;
    # start from a clean per-process tracer either way.  Job spans recorded
    # here become tracer roots, shipped back on each JobResult (see
    # repro.engine.execute.execute_job).
    trace.reset(enabled=trace_enabled)
    # Same story for metrics: a forked worker inherits the parent's live
    # registry values; start from zero so the per-job drain below ships
    # only this worker's own deltas.
    metrics.reset(enabled=metrics_enabled)
    while True:
        item = task_queue.get()
        if item is None:
            break
        idx, job, key = item
        try:
            result = execute_job(job, key)
        except BaseException as err:  # noqa: BLE001 - keep the worker alive
            result = JobResult(
                key=key,
                kind=getattr(job, "kind", "?"),
                ok=False,
                error=f"unhandled {type(err).__name__}: {err}",
                label=getattr(job, "label", ""),
            )
        if metrics_enabled:
            # Drain (snapshot + zero) so each result carries exactly the
            # metrics recorded since the previous send; the parent merges
            # them on receipt (repro.engine.runner), and a crashed attempt
            # never sends, so a retried job merges exactly once.
            result.obs_metrics = metrics.drain()
        conn.send((idx, result))


@dataclass
class _Assignment:
    index: int
    job: Job
    key: str
    attempts: int
    deadline: float | None


class _Worker:
    """One slot of the pool: process + private task queue + result pipe."""

    def __init__(self, ctx: multiprocessing.context.BaseContext) -> None:
        self.task_queue = ctx.Queue()
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(
                self.task_queue,
                child_conn,
                trace.is_enabled(),
                metrics.is_enabled(),
            ),
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.assignment: _Assignment | None = None

    def assign(self, item: _Assignment) -> None:
        self.assignment = item
        self.task_queue.put((item.index, item.job, item.key))

    def shutdown(self, graceful: bool = True) -> None:
        try:
            if graceful and self.proc.is_alive():
                self.task_queue.put(None)
                self.proc.join(timeout=1.0)
            if self.proc.is_alive():
                self.proc.terminate()
                self.proc.join(timeout=1.0)
            if self.proc.is_alive():  # pragma: no cover - stubborn process
                self.proc.kill()
                self.proc.join(timeout=1.0)
        finally:
            self.conn.close()
            if not graceful:
                # Don't block interpreter exit flushing a queue nobody
                # will ever read (the feeder thread would otherwise be
                # joined at shutdown while the pipe is full).
                self.task_queue.cancel_join_thread()
            self.task_queue.close()


class WorkerPool:
    """A fixed-size pool of worker processes with crash retry.

    ``retries`` is the number of *extra* attempts granted to a job whose
    worker crashed or timed out (``retries=1`` means at most two attempts).
    """

    def __init__(
        self,
        workers: int,
        timeout: float | None = None,
        retries: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.timeout = timeout
        self.retries = max(0, retries)
        self.stats = PoolStats(workers=self.workers)
        self._ctx = _preferred_context()

    # ------------------------------------------------------------------
    def run(self, tasks: list[tuple[Job, str]]) -> list[JobResult]:
        """Execute ``tasks`` (job, canonical key) and return ordered results."""
        if not tasks:
            return []
        total = len(tasks)
        pending: deque[_Assignment] = deque(
            _Assignment(index=i, job=job, key=key, attempts=0, deadline=None)
            for i, (job, key) in enumerate(tasks)
        )
        results: dict[int, JobResult] = {}
        pool = [_Worker(self._ctx) for _ in range(min(self.workers, total))]
        previous_term = self._install_term_handler()
        graceful = True
        try:
            metered = metrics.is_enabled()
            while len(results) < total:
                self._dispatch(pool, pending)
                if metered:
                    # Jobs waiting for a worker slot right now -- the USE
                    # saturation signal for pool sizing.
                    metrics.set_gauge("engine_pool_queue_depth", len(pending))
                self._collect(pool, pending, results)
            if metered:
                metrics.set_gauge("engine_pool_queue_depth", 0)
        except BaseException:
            # Interrupted (KeyboardInterrupt, SIGTERM) or master bug: skip
            # the queue-drain handshake and terminate workers outright so
            # no multiprocessing child outlives the batch.
            graceful = False
            raise
        finally:
            for worker in pool:
                worker.shutdown(graceful=graceful)
            self._restore_term_handler(previous_term)
        return [results[i] for i in range(total)]

    @staticmethod
    def _install_term_handler() -> _SigHandler:
        """Route SIGTERM through the KeyboardInterrupt teardown path.

        A service manager stopping a batch run sends SIGTERM; the default
        disposition kills the master instantly and orphans the daemonized
        workers mid-job.  Converting it to KeyboardInterrupt reuses the
        exact Ctrl-C path: non-graceful pool shutdown, then the CLI's exit
        code 130.  Only possible from the main thread; elsewhere (e.g. the
        serve layer's executor threads) the default disposition stands.
        """
        if threading.current_thread() is not threading.main_thread():
            return None

        def _raise(signum: int, frame: FrameType | None) -> None:
            raise KeyboardInterrupt(f"terminated by signal {signum}")
        try:
            return signal.signal(signal.SIGTERM, _raise)
        except (ValueError, OSError):  # pragma: no cover
            return None

    @staticmethod
    def _restore_term_handler(previous: _SigHandler) -> None:
        if previous is None:
            return
        try:
            signal.signal(signal.SIGTERM, previous)
        except (ValueError, OSError):  # pragma: no cover
            pass

    def close(self) -> None:
        pass  # workers live only inside run()

    # ------------------------------------------------------------------
    def _dispatch(self, pool: list[_Worker], pending: deque[_Assignment]) -> None:
        for worker in pool:
            if not pending:
                return
            if worker.assignment is None:
                item = pending.popleft()
                item.attempts += 1
                item.deadline = (
                    time.monotonic() + self.timeout if self.timeout else None
                )
                worker.assign(item)

    def _collect(
        self,
        pool: list[_Worker],
        pending: deque[_Assignment],
        results: dict[int, JobResult],
    ) -> None:
        busy = [w for w in pool if w.assignment is not None]
        if not busy:  # pragma: no cover - dispatch always precedes collect
            return
        now = time.monotonic()
        deadlines = [w.assignment.deadline for w in busy if w.assignment.deadline]
        wait_for = _POLL_INTERVAL
        if deadlines:
            wait_for = max(0.0, min(min(deadlines) - now, _POLL_INTERVAL))
        waitables = [w.conn for w in busy] + [w.proc.sentinel for w in busy]
        ready = set(_wait_connections(waitables, timeout=wait_for))

        now = time.monotonic()
        for i, worker in enumerate(pool):
            item = worker.assignment
            if item is None:
                continue
            # A finished result beats a sentinel: a worker that sent its
            # result and was then killed still did the work.
            if worker.conn in ready:
                try:
                    index, result = worker.conn.recv()
                except (EOFError, OSError):
                    pool[i] = self._fail_over(worker, pending, results, "crashed")
                    continue
                result.attempts = item.attempts
                self.stats.executed += 1
                if not result.ok:
                    self.stats.soft_failures += 1
                results[index] = result
                worker.assignment = None
            elif worker.proc.sentinel in ready or not worker.proc.is_alive():
                pool[i] = self._fail_over(worker, pending, results, "crashed")
            elif item.deadline is not None and now > item.deadline:
                pool[i] = self._fail_over(worker, pending, results, "timed out")

    def _fail_over(
        self,
        worker: _Worker,
        pending: deque[_Assignment],
        results: dict[int, JobResult],
        reason: str,
    ) -> _Worker:
        """Replace a dead/stuck worker; requeue or fail its assignment."""
        item = worker.assignment
        assert item is not None
        if reason == "timed out":
            self.stats.timeouts += 1
        else:
            self.stats.crashes += 1
        if trace.is_enabled():
            trace.add_event(
                "pool.failover",
                reason=reason,
                attempts=item.attempts,
                label=getattr(item.job, "label", ""),
            )
        worker.shutdown(graceful=False)
        if item.attempts <= self.retries:
            self.stats.retries += 1
            # Retry first so ordering pressure stays on the failed job.
            pending.appendleft(item)
        else:
            results[item.index] = JobResult(
                key=item.key,
                kind=getattr(item.job, "kind", "?"),
                ok=False,
                error=(
                    f"worker {reason} (attempt {item.attempts} of "
                    f"{self.retries + 1})"
                ),
                label=getattr(item.job, "label", ""),
                attempts=item.attempts,
            )
        return _Worker(self._ctx)
