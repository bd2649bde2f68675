"""repro.obs -- hierarchical tracing, structured run logs, and exporters.

Three cooperating layers (see ``docs/OBSERVABILITY.md`` for the tour):

* :mod:`repro.obs.trace`  -- nested spans with attributes, counters and
  events; process-aware (pool workers serialize their span trees back to
  the parent engine, which reassembles them under the batch root);
* :mod:`repro.obs.events` -- a per-run JSONL event log with levels and a
  stdlib-``logging`` bridge;
* :mod:`repro.obs.metrics` -- labeled counters, gauges and log-bucketed
  histograms with cross-process snapshot/merge and native Prometheus
  histogram exposition (``_bucket``/``_sum``/``_count``);
* :mod:`repro.obs.export` -- Chrome-trace/Perfetto JSON and a
  Prometheus-style flat text dump, plus the ``repro trace summarize``
  renderer.

Tracing and metrics are off by default and cost <2% when disabled
(asserted by ``benchmarks/bench_obs_overhead.py``), so the
instrumentation lives permanently in the hot paths.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

# Static checkers see every export; at run time each binds on first access.
if TYPE_CHECKING:
    from repro.obs.events import LEVELS as LEVELS
    from repro.obs.events import EventLog as EventLog
    from repro.obs.events import EventLogHandler as EventLogHandler
    from repro.obs.events import emit as emit
    from repro.obs.events import get_log as get_log
    from repro.obs.events import install_logging_bridge as install_logging_bridge
    from repro.obs.events import remove_logging_bridge as remove_logging_bridge
    from repro.obs.events import set_log as set_log
    from repro.obs.export import TRACE_VERSION as TRACE_VERSION
    from repro.obs.export import chrome_trace as chrome_trace
    from repro.obs.export import load_trace as load_trace
    from repro.obs.export import prometheus_text as prometheus_text
    from repro.obs.export import summarize as summarize
    from repro.obs.export import walk as walk
    from repro.obs.export import walk_with_ancestors as walk_with_ancestors
    from repro.obs.export import write_chrome_trace as write_chrome_trace
    from repro.obs.metrics import COUNT_BUCKETS as COUNT_BUCKETS
    from repro.obs.metrics import LATENCY_BUCKETS as LATENCY_BUCKETS
    from repro.obs.metrics import Counter as Counter
    from repro.obs.metrics import Gauge as Gauge
    from repro.obs.metrics import Histogram as Histogram
    from repro.obs.metrics import MetricsRegistry as MetricsRegistry
    from repro.obs.metrics import NullMetric as NullMetric
    from repro.obs.metrics import parse_prometheus_text as parse_prometheus_text
    from repro.obs.metrics import quantile_from_buckets as quantile_from_buckets
    from repro.obs.metrics import use_registry as use_registry
    from repro.obs.trace import NullSpan as NullSpan
    from repro.obs.trace import Span as Span
    from repro.obs.trace import Tracer as Tracer
    from repro.obs.trace import add_event as add_event
    from repro.obs.trace import attach as attach
    from repro.obs.trace import current_span as current_span
    from repro.obs.trace import disable as disable
    from repro.obs.trace import enable as enable
    from repro.obs.trace import get_tracer as get_tracer
    from repro.obs.trace import inc as inc
    from repro.obs.trace import is_enabled as is_enabled
    from repro.obs.trace import new_run_id as new_run_id
    from repro.obs.trace import reset as reset
    from repro.obs.trace import set_thread_tracer as set_thread_tracer
    from repro.obs.trace import span as span
    from repro.obs.trace import use_tracer as use_tracer

#: Every export and the module that defines it, imported on first access.
_EXPORTS = {
    "COUNT_BUCKETS": ".metrics",
    "Counter": ".metrics",
    "EventLog": ".events",
    "EventLogHandler": ".events",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "LATENCY_BUCKETS": ".metrics",
    "LEVELS": ".events",
    "MetricsRegistry": ".metrics",
    "NullMetric": ".metrics",
    "NullSpan": ".trace",
    "Span": ".trace",
    "TRACE_VERSION": ".export",
    "Tracer": ".trace",
    "add_event": ".trace",
    "attach": ".trace",
    "chrome_trace": ".export",
    "current_span": ".trace",
    "disable": ".trace",
    "emit": ".events",
    "enable": ".trace",
    "get_log": ".events",
    "get_tracer": ".trace",
    "inc": ".trace",
    "install_logging_bridge": ".events",
    "is_enabled": ".trace",
    "load_trace": ".export",
    "new_run_id": ".trace",
    "parse_prometheus_text": ".metrics",
    "prometheus_text": ".export",
    "quantile_from_buckets": ".metrics",
    "remove_logging_bridge": ".events",
    "reset": ".trace",
    "set_log": ".events",
    "set_thread_tracer": ".trace",
    "span": ".trace",
    "use_registry": ".metrics",
    "use_tracer": ".trace",
    "summarize": ".export",
    "walk": ".export",
    "walk_with_ancestors": ".export",
    "write_chrome_trace": ".export",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
