"""repro.engine -- cached, parallel batch analysis with per-stage metrics.

The engine executes declarative timing jobs (minimize / analyze / sweep /
baseline) through a content-hash result cache and an optional process
pool, collecting per-stage wall-clock metrics along the way.  See
``docs/ENGINE.md`` for the full tour.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

# Static checkers see every export; at run time each binds on first access.
if TYPE_CHECKING:
    from repro.engine.cache import CacheStats as CacheStats
    from repro.engine.cache import ResultCache as ResultCache
    from repro.engine.jobspec import BASELINE_ALGORITHMS as BASELINE_ALGORITHMS
    from repro.engine.jobspec import AnalyzeJob as AnalyzeJob
    from repro.engine.jobspec import BaselineJob as BaselineJob
    from repro.engine.jobspec import FaultJob as FaultJob
    from repro.engine.jobspec import Job as Job
    from repro.engine.jobspec import JobResult as JobResult
    from repro.engine.jobspec import MinimizeJob as MinimizeJob
    from repro.engine.jobspec import SweepJob as SweepJob
    from repro.engine.jobspec import job_key as job_key
    from repro.engine.jobspec import jobs_from_grid as jobs_from_grid
    from repro.engine.metrics import STAGES as STAGES
    from repro.engine.metrics import EngineReport as EngineReport
    from repro.engine.metrics import MetricsAggregator as MetricsAggregator
    from repro.engine.metrics import StageTimer as StageTimer
    from repro.engine.pool import WorkerPool as WorkerPool
    from repro.engine.runner import Engine as Engine
    from repro.engine.runner import map_sweep as map_sweep
    from repro.engine.runner import run_jobs as run_jobs
    from repro.engine.serial import PoolStats as PoolStats
    from repro.engine.serial import SerialPool as SerialPool
    from repro.engine.serial import make_pool as make_pool

#: Every export and the module that defines it, imported on first access.
_EXPORTS = {
    "AnalyzeJob": ".jobspec",
    "BASELINE_ALGORITHMS": ".jobspec",
    "BaselineJob": ".jobspec",
    "CacheStats": ".cache",
    "Engine": ".runner",
    "EngineReport": ".metrics",
    "FaultJob": ".jobspec",
    "Job": ".jobspec",
    "JobResult": ".jobspec",
    "MetricsAggregator": ".metrics",
    "MinimizeJob": ".jobspec",
    "PoolStats": ".serial",
    "ResultCache": ".cache",
    "STAGES": ".metrics",
    "SerialPool": ".serial",
    "StageTimer": ".metrics",
    "SweepJob": ".jobspec",
    "WorkerPool": ".pool",
    "job_key": ".jobspec",
    "jobs_from_grid": ".jobspec",
    "make_pool": ".serial",
    "map_sweep": ".runner",
    "run_jobs": ".runner",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
