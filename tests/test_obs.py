"""Tests for the observability subsystem (repro.obs) and its wiring."""

from __future__ import annotations

import json
import logging

import pytest

from repro import obs
from repro.cli import main
from repro.core.mlp import MLPOptions, minimize_cycle_time
from repro.core.reporting import format_optimal_result
from repro.designs import example1
from repro.engine import Engine, FaultJob, MinimizeJob
from repro.engine.metrics import MetricsAggregator
from repro.lang.writer import write_circuit
from repro.obs import metrics, trace


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with tracing and metrics off, no log."""
    trace.reset(enabled=False)
    metrics.reset(enabled=False)
    obs.set_log(None)
    yield
    trace.reset(enabled=False)
    metrics.reset(enabled=False)
    obs.set_log(None)


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.lcd"
    path.write_text(write_circuit(example1(80.0)))
    return str(path)


# ----------------------------------------------------------------------
# Span tracer primitives
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_returns_null_span(self):
        span = trace.span("anything")
        assert isinstance(span, obs.NullSpan)
        assert not span
        with span as s:
            s.set("k", 1)
            s.inc("c")
            s.event("e")
        assert trace.get_tracer().roots == []

    def test_nesting_builds_a_tree(self):
        tracer = trace.enable()
        with trace.span("outer", kind="test") as outer:
            outer.inc("touched")
            with trace.span("inner") as inner:
                inner.set("depth", 2)
                trace.add_event("ping", n=1)
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert root.attributes == {"kind": "test"}
        assert root.counters == {"touched": 1}
        assert [c.name for c in root.children] == ["inner"]
        assert root.children[0].events[0]["name"] == "ping"
        assert root.duration > 0.0

    def test_exception_unwind_keeps_stack_consistent(self):
        tracer = trace.enable()
        with pytest.raises(RuntimeError):
            with trace.span("outer"):
                with trace.span("inner"):
                    raise RuntimeError("boom")
        assert tracer._stack == []
        assert [r.name for r in tracer.roots] == ["outer"]
        assert tracer.roots[0].attributes.get("exception") == "RuntimeError"

    def test_serialization_round_trip(self):
        tracer = trace.enable()
        with trace.span("a", x=1) as a:
            a.inc("n", 3)
            a.event("hit", key="k")
            with trace.span("b"):
                pass
        data = tracer.roots[0].to_dict()
        clone = obs.Span.from_dict(json.loads(json.dumps(data)))
        assert [s.name for s in clone.walk()] == ["a", "b"]
        assert clone.counters == {"n": 3}
        assert clone.attributes == {"x": 1}

    def test_attach_grafts_under_current_span(self):
        tracer = trace.enable()
        foreign = {"name": "job", "t0": 0.0, "dur": 0.5, "pid": 999,
                   "attrs": {}, "counters": {}, "events": [], "children": []}
        with trace.span("batch"):
            trace.attach([foreign])
        root = tracer.roots[0]
        assert [c.name for c in root.children] == ["job"]
        assert root.children[0].pid == 999


# ----------------------------------------------------------------------
# Event log + logging bridge
# ----------------------------------------------------------------------
class TestEventLog:
    def test_levels_filter_and_jsonl_shape(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with obs.EventLog(str(path), run_id="r1", level="info") as log:
            assert log.emit("kept", level="info", value=1)
            assert not log.emit("dropped", level="debug")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["event"] for l in lines] == ["kept"]
        assert lines[0]["run"] == "r1"
        assert lines[0]["value"] == 1
        assert log.emitted == 1 and log.dropped == 1

    def test_global_log_and_module_emit(self, tmp_path):
        assert not obs.emit("nowhere")  # no log installed -> no-op
        log = obs.EventLog(str(tmp_path / "g.jsonl"))
        obs.set_log(log)
        assert obs.emit("somewhere", n=2)
        obs.set_log(None)
        log.close()

    def test_logging_bridge_round_trip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = obs.EventLog(str(path))
        handler = obs.install_logging_bridge(log, logger_name="repro.test")
        try:
            logging.getLogger("repro.test").warning("watch out: %s", 42)
        finally:
            obs.remove_logging_bridge(handler, logger_name="repro.test")
            log.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["event"] == "log"
        assert lines[0]["level"] == "warning"
        assert lines[0]["message"] == "watch out: 42"


# ----------------------------------------------------------------------
# Instrumented MLP run: span tree shape + convergence telemetry
# ----------------------------------------------------------------------
class TestMlpTracing:
    def test_span_tree_and_pivot_events(self, ex1):
        tracer = trace.enable()
        with trace.span("run"):
            result = minimize_cycle_time(ex1, mlp=MLPOptions(backend="simplex"))
        names = [s.name for s in tracer.roots[0].walk()]
        for expected in ("constraint_gen", "lp_solve", "compact", "slide", "analysis"):
            assert expected in names
        pivots = sum(
            1
            for s in tracer.roots[0].walk()
            for e in s.events
            if e["name"] == "pivot"
        )
        assert pivots > 0
        lp_spans = [s for s in tracer.roots[0].walk() if s.name == "lp_solve"]
        assert all(s.attributes["pivots"] >= 0 for s in lp_spans)
        assert result.period == pytest.approx(110.0)

    def test_untraced_run_is_identical(self, ex1):
        baseline = minimize_cycle_time(ex1)
        trace.enable()
        with trace.span("run"):
            traced = minimize_cycle_time(ex1)
        trace.disable()
        assert traced.period == baseline.period
        assert traced.departures == baseline.departures
        assert traced.slide_residual == baseline.slide_residual

    def test_slide_residual_in_result_and_report(self, ex1):
        result = minimize_cycle_time(ex1)
        assert result.slide_residual >= 0.0
        assert result.extra["slide_residual"] == result.slide_residual
        assert "residual" in format_optimal_result(result)


# ----------------------------------------------------------------------
# Engine: worker span reassembly across the process pool
# ----------------------------------------------------------------------
class TestEngineTracing:
    def test_serial_jobs_nest_under_batch_span(self, ex1):
        tracer = trace.enable()
        job = MinimizeJob(graph=ex1, mlp=MLPOptions(verify=False), label="e1")
        with trace.span("top"):
            Engine(jobs=1).run_jobs([job])
        walked = list(tracer.roots[0].walk())
        batch = [s for s in walked if s.name == "engine.run_jobs"]
        jobs = [s for s in walked if s.name == "job.minimize"]
        assert len(batch) == 1 and len(jobs) == 1
        assert jobs[0] in batch[0].children

    def test_parallel_jobs_reassemble_with_worker_pids(self, ex1, ex2):
        import os

        tracer = trace.enable()
        jobs = [
            MinimizeJob(graph=ex1, mlp=MLPOptions(verify=False), label="e1"),
            MinimizeJob(graph=ex2, mlp=MLPOptions(verify=False), label="e2"),
        ]
        with trace.span("top"):
            results = Engine(jobs=2).run_jobs(jobs)
        assert all(r.ok for r in results)
        assert all(r.spans == [] for r in results)  # consumed by the graft
        walked = list(tracer.roots[0].walk())
        job_spans = [s for s in walked if s.name == "job.minimize"]
        assert len(job_spans) == 2
        assert {s.attributes["label"] for s in job_spans} == {"e1", "e2"}
        assert all(s.pid != os.getpid() for s in job_spans)
        # worker job spans carry the full per-job tree
        for span in job_spans:
            assert "lp_solve" in [c.name for c in span.children]

    def test_crash_retry_produces_span_from_surviving_attempt(self, tmp_path):
        tracer = trace.enable()
        flag = str(tmp_path / "armed")
        jobs = [
            FaultJob(mode="ok", value=1.0, label="ok"),
            FaultJob(mode="crash", value=2.0, crash_once_path=flag,
                     label="crashy"),
        ]
        with trace.span("top"):
            results = Engine(jobs=2, retries=1).run_jobs(jobs)
        assert [r.ok for r in results] == [True, True]
        assert results[1].attempts == 2
        walked = list(tracer.roots[0].walk())
        fault_spans = [s for s in walked if s.name == "job.fault"]
        # The crashed attempt's span dies with its worker; the retry's
        # span (plus the clean job's) must still reassemble.
        labels = sorted(s.attributes["label"] for s in fault_spans)
        assert labels == ["crashy", "ok"]
        batch = next(s for s in walked if s.name == "engine.run_jobs")
        assert any(e["name"] == "pool.failover" for e in batch.events)

    def test_worker_metrics_merge_into_parent_registry(self, ex1, ex2):
        metrics.reset(enabled=True)
        jobs = [
            MinimizeJob(graph=ex1, mlp=MLPOptions(verify=False), label="e1"),
            MinimizeJob(graph=ex2, mlp=MLPOptions(verify=False), label="e2"),
        ]
        results = Engine(jobs=2).run_jobs(jobs)
        assert all(r.ok for r in results)
        # snapshots were consumed by the merge, like span grafting
        assert all(r.obs_metrics == [] for r in results)
        registry = metrics.get_registry()
        executed = sum(
            m.value
            for m in registry.collect()
            if m.name == "engine_jobs_total"
        )
        assert executed == 2.0
        latency = registry.find("engine_job_seconds", kind="minimize")
        assert latency is not None and latency.count == 2
        # the compute layers' series crossed the process boundary too
        assert sum(
            m.value
            for m in registry.collect()
            if m.name == "lp_solves_total"
        ) >= 2.0

    def test_crash_retry_merges_metrics_exactly_once(self, tmp_path):
        """A retried job's snapshot merges once: the crashed attempt's
        worker dies before sending its result, so only the surviving
        attempt contributes counts."""
        metrics.reset(enabled=True)
        flag = str(tmp_path / "armed")
        jobs = [
            FaultJob(mode="ok", value=1.0, label="ok"),
            FaultJob(mode="crash", value=2.0, crash_once_path=flag,
                     label="crashy"),
        ]
        results = Engine(jobs=2, retries=1).run_jobs(jobs)
        assert [r.ok for r in results] == [True, True]
        assert results[1].attempts == 2
        registry = metrics.get_registry()
        executed = sum(
            m.value
            for m in registry.collect()
            if m.name == "engine_jobs_total"
        )
        # exactly one count per job -- not one per attempt
        assert executed == 2.0
        latency = registry.find("engine_job_seconds", kind="fault")
        assert latency is not None and latency.count == 2

    def test_cached_results_carry_no_spans(self, ex1):
        trace.enable()
        engine = Engine(jobs=1)
        job = MinimizeJob(graph=ex1, mlp=MLPOptions(verify=False))
        with trace.span("top"):
            engine.run_jobs([job])
            second = engine.run_jobs([job])[0]
        assert second.cached and second.spans == []

    def test_cache_events_recorded(self, ex1):
        tracer = trace.enable()
        engine = Engine(jobs=1)
        job = MinimizeJob(graph=ex1, mlp=MLPOptions(verify=False))
        with trace.span("top"):
            engine.run_jobs([job])
            engine.run_jobs([job])
        events = [
            e
            for s in tracer.roots[0].walk()
            for e in s.events
            if e["name"] in ("cache.lookup", "cache.store")
        ]
        hits = [e for e in events if e["name"] == "cache.lookup" and e["hit"]]
        stores = [e for e in events if e["name"] == "cache.store"]
        assert hits and stores


class TestCachedFailedMetric:
    def test_duplicate_failed_jobs_counted(self):
        engine = Engine(jobs=1)
        bad = FaultJob(mode="error", label="dup")
        results = engine.run_jobs([bad, bad])
        assert [r.ok for r in results] == [False, False]
        assert results[1].cached
        report = engine.report
        assert report.cached_failed == 1
        assert "1 from cache (1 failed)" in report.format()

    def test_zero_keeps_format_stable(self):
        aggregator = MetricsAggregator()
        aggregator.add_result(ok=True, cached=False, attempts=1, metrics={})
        assert "(0 failed)" not in aggregator.report.format()
        assert "0 from cache" in aggregator.report.format()


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_forest():
    tracer = trace.enable()
    with trace.span("root", label="L") as root:
        root.inc("widgets", 2)
        with trace.span("lp_solve", backend="simplex", pivots=7):
            trace.add_event("pivot", enter=1, leave=2)
        with trace.span("slide", method="jacobi") as s:
            s.set("sweeps", 3)
            s.set("residual", 0.125)
    spans = [s.to_dict() for s in tracer.roots]
    trace.disable()
    return spans


class TestExporters:
    def test_chrome_trace_shape(self):
        spans = _sample_forest()
        doc = obs.chrome_trace(spans, run_id="rid")
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in complete} == {"root", "lp_solve", "slide"}
        assert instants[0]["name"] == "pivot"
        root_event = next(e for e in complete if e["name"] == "root")
        assert root_event["args"]["counter.widgets"] == 2
        assert doc["repro"]["run_id"] == "rid"
        assert doc["repro"]["spans"] == spans

    def test_write_load_round_trip(self, tmp_path):
        spans = _sample_forest()
        path = str(tmp_path / "t.json")
        obs.write_chrome_trace(path, spans, run_id="rid")
        run_id, loaded = obs.load_trace(path)
        assert run_id == "rid"
        assert loaded == json.loads(json.dumps(spans))

    def test_load_foreign_chrome_trace(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({
            "traceEvents": [
                {"name": "x", "ph": "X", "ts": 1e6, "dur": 2e6, "pid": 1},
                {"name": "skip", "ph": "M", "ts": 0},
            ]
        }))
        run_id, spans = obs.load_trace(str(path))
        assert run_id is None
        assert [s["name"] for s in spans] == ["x"]
        assert spans[0]["dur"] == pytest.approx(2.0)

    def test_prometheus_text(self):
        text = obs.prometheus_text(_sample_forest(), extra={"jobs_total": 4})
        assert 'repro_span_total{name="lp_solve"} 1' in text
        assert 'repro_span_counter_total{name="root",counter="widgets"} 2' in text
        assert 'repro_span_events_total{name="lp_solve",event="pivot"} 1' in text
        assert "repro_jobs_total 4" in text

    def test_summarize_tables(self):
        text = obs.summarize(_sample_forest(), run_id="rid")
        assert "run rid" in text
        assert "time breakdown (top-down):" in text
        assert "lp solves:" in text
        assert "slide convergence:" in text
        assert "jacobi" in text and "0.125" in text


# ----------------------------------------------------------------------
# CLI round trips
# ----------------------------------------------------------------------
class TestCliObservability:
    def test_trace_flag_then_summarize(self, ex1_file, tmp_path, capsys):
        trace_file = str(tmp_path / "t.json")
        assert main(["minimize", ex1_file, "--trace", trace_file]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", trace_file]) == 0
        out = capsys.readouterr().out
        assert "time breakdown (top-down):" in out
        assert "repro.minimize" in out
        assert "lp solves:" in out
        assert "slide convergence:" in out
        # tracing is torn down after the run
        assert not trace.is_enabled()

    def test_trace_export_prom(self, ex1_file, tmp_path, capsys):
        trace_file = str(tmp_path / "t.json")
        assert main(["minimize", ex1_file, "--trace", trace_file]) == 0
        capsys.readouterr()
        assert main(["trace", "export-prom", trace_file]) == 0
        out = capsys.readouterr().out
        assert 'repro_span_seconds_total{name="lp_solve"}' in out

    def test_traced_parallel_batch_covers_workers(self, ex1_file, tmp_path,
                                                  capsys):
        trace_file = str(tmp_path / "b.json")
        assert main(["batch", ex1_file, ex1_file, "--jobs", "2",
                     "--trace", trace_file]) == 0
        capsys.readouterr()
        _, spans = obs.load_trace(trace_file)
        names = [s["name"] for s in obs.walk(spans)]
        assert "engine.run_jobs" in names
        assert "job.minimize" in names

    def test_log_json_records_run_events(self, ex1_file, tmp_path, capsys):
        log_file = str(tmp_path / "run.jsonl")
        assert main(["minimize", ex1_file, "--log-json", log_file]) == 0
        capsys.readouterr()
        lines = [json.loads(l) for l in open(log_file, encoding="utf-8")]
        events = [l["event"] for l in lines]
        assert events[0] == "run.start"
        assert "minimize.done" in events
        assert events[-1] == "run.end"
        assert lines[-1]["exit_code"] == 0
        assert len({l["run"] for l in lines}) == 1
        assert obs.get_log() is None  # torn down

    def test_quiet_suppresses_output_keeps_exit_code(self, ex1_file, capsys):
        assert main(["minimize", ex1_file, "-q"]) == 0
        assert capsys.readouterr().out == ""
        # and a later run without -q prints again
        assert main(["minimize", ex1_file]) == 0
        assert "optimal cycle time" in capsys.readouterr().out

    def test_summarize_rejects_non_trace_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        assert main(["trace", "summarize", str(bad)]) == 2
        assert "error" in capsys.readouterr().err
