"""repro.serve -- the analysis-as-a-service layer.

Five cooperating modules (see ``docs/SERVE.md`` for the tour):

* :mod:`repro.serve.store`    -- persistent content-addressed SQLite
  result store (WAL mode, schema-versioned) plus the
  :class:`StoreBackedCache` adapter the batch CLI shares;
* :mod:`repro.serve.protocol` -- JSON requests in, declarative engine
  jobs out, with strict unknown-key rejection;
* :mod:`repro.serve.service`  -- the asyncio service core: request
  coalescing, two-level result cache, lint admission control,
  graceful drain;
* :mod:`repro.serve.http`     -- the stdlib HTTP/1.1 front end
  (``repro serve``), including server-sent progress events;
* :mod:`repro.serve.loadgen`  -- the deterministic weighted-mix load
  generator (``repro loadgen``) used by benchmarks and CI smoke.

Everything is standard library on top of the existing engine; the server
holds all mutable state on one event loop and runs jobs as pure
functions on executor threads.
"""

from repro.serve.events import MAX_BRIDGED_EVENTS, result_events, span_events
from repro.serve.http import HttpServer, ServerHandle, run_in_thread
from repro.serve.loadgen import (
    DEFAULT_MIX,
    LoadgenError,
    LoadgenReport,
    load_mix,
    parse_metrics_text,
    run_load,
)
from repro.serve.protocol import (
    DESIGNS,
    PROTOCOL_VERSION,
    RequestError,
    job_from_request,
)
from repro.serve.service import (
    AnalysisService,
    JobRecord,
    ServiceStats,
    ServiceUnavailableError,
    latency_percentiles,
)
from repro.serve.store import (
    SIGNATURE_VERSION,
    SQLITE_SUFFIXES,
    STORE_SCHEMA_VERSION,
    ResultStore,
    StoreBackedCache,
    StoreError,
    StoreStats,
    StoreVersionError,
    open_cache,
)

__all__ = [
    "AnalysisService",
    "DEFAULT_MIX",
    "DESIGNS",
    "HttpServer",
    "JobRecord",
    "LoadgenError",
    "LoadgenReport",
    "MAX_BRIDGED_EVENTS",
    "PROTOCOL_VERSION",
    "RequestError",
    "ResultStore",
    "SIGNATURE_VERSION",
    "SQLITE_SUFFIXES",
    "STORE_SCHEMA_VERSION",
    "ServerHandle",
    "ServiceStats",
    "ServiceUnavailableError",
    "StoreBackedCache",
    "StoreError",
    "StoreStats",
    "StoreVersionError",
    "job_from_request",
    "latency_percentiles",
    "load_mix",
    "open_cache",
    "parse_metrics_text",
    "result_events",
    "run_in_thread",
    "run_load",
    "span_events",
]
