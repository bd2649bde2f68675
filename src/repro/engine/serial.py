"""In-process job execution behind the pool interface, and the pool factory.

A serial engine (``jobs=1``) runs every job in its own thread through
:class:`SerialPool`; only a larger worker count loads the process pool
of :mod:`repro.engine.pool`, and with it :mod:`multiprocessing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.execute import execute_job
from repro.engine.jobspec import Job, JobResult

if TYPE_CHECKING:
    from repro.engine.pool import WorkerPool


@dataclass
class PoolStats:
    """Execution accounting for one pool instance."""

    workers: int = 1
    executed: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    soft_failures: int = 0


class SerialPool:
    """In-process fallback with the same ``run`` interface as WorkerPool."""

    def __init__(self) -> None:
        self.stats = PoolStats(workers=1)

    def run(self, tasks: list[tuple[Job, str]]) -> list[JobResult]:
        results = []
        for job, key in tasks:
            result = execute_job(job, key)
            self.stats.executed += 1
            if not result.ok:
                self.stats.soft_failures += 1
            results.append(result)
        return results

    def close(self) -> None:
        pass


def make_pool(
    jobs: int,
    timeout: float | None = None,
    retries: int = 1,
) -> SerialPool | WorkerPool:
    """A pool sized to ``jobs``: serial for 1, processes otherwise."""
    if jobs <= 1:
        return SerialPool()
    from repro.engine.pool import WorkerPool

    return WorkerPool(workers=jobs, timeout=timeout, retries=retries)
