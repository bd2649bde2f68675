"""Tests for the metrics registry, exposition, dashboard and bench gate."""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.cli import main
from repro.obs import metrics
from repro.obs.bench import (
    BenchError,
    compare,
    compare_entries,
    load_trajectory,
    record,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullMetric,
    parse_prometheus_text,
    quantile_from_buckets,
)
from repro.obs.top import MetricsView, bucket_delta, render_dashboard, run_top
from repro.serve.service import AnalysisService, latency_percentiles

MIN_EX1 = {"kind": "minimize", "design": "example1"}


@pytest.fixture(autouse=True)
def _clean_metrics_state():
    metrics.reset(enabled=False)
    yield
    metrics.reset(enabled=False)


# ----------------------------------------------------------------------
# Registry core
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_inc_and_labels(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("hits_total", kind="a").inc()
        reg.counter("hits_total", kind="a").inc(2.0)
        reg.counter("hits_total", kind="b").inc()
        assert reg.find("hits_total", kind="a").value == 3.0
        assert reg.find("hits_total", kind="b").value == 1.0
        assert reg.find("hits_total", kind="c") is None

    def test_label_order_does_not_split_series(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("x_total", a="1", b="2").inc()
        reg.counter("x_total", b="2", a="1").inc()
        assert len(list(reg.collect())) == 1
        assert reg.find("x_total", b="2", a="1").value == 2.0

    def test_gauge_set_and_dec(self):
        reg = MetricsRegistry(enabled=True)
        g = reg.gauge("depth")
        g.set(5.0)
        g.dec()
        assert reg.find("depth").value == 4.0

    def test_disabled_registry_returns_null_singleton(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x_total")
        assert isinstance(c, NullMetric)
        assert c is reg.histogram("y_seconds")  # shared singleton
        c.inc()
        c.observe(1.0)
        c.set(2.0)  # all no-ops
        assert list(reg.collect()) == []
        assert not c

    def test_module_level_helpers_respect_enable_state(self):
        metrics.inc("mod_total")  # disabled: swallowed
        assert list(metrics.get_registry().collect()) == []
        metrics.reset(enabled=True)
        metrics.inc("mod_total")
        metrics.observe("mod_seconds", 0.5)
        metrics.set_gauge("mod_depth", 3.0)
        names = {m.name for m in metrics.get_registry().collect()}
        assert names == {"mod_total", "mod_seconds", "mod_depth"}

    def test_enable_does_not_clear_accumulated_values(self):
        metrics.reset(enabled=True)
        metrics.inc("kept_total")
        metrics.enable()  # unlike trace.enable(), must not reset
        assert metrics.get_registry().find("kept_total").value == 1.0

    def test_thread_local_registry_override(self):
        metrics.reset(enabled=False)
        private = MetricsRegistry(enabled=True)
        with metrics.use_registry(private):
            metrics.inc("scoped_total")
        assert private.find("scoped_total").value == 1.0
        assert metrics.get_registry().find("scoped_total") is None


# ----------------------------------------------------------------------
# Histogram math
# ----------------------------------------------------------------------
class TestHistogram:
    def test_observe_counts_and_sum(self):
        h = Histogram("t_seconds", (), bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)
        assert list(h.counts) == [1, 2, 1, 1]  # last is overflow

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram("t_seconds", (), bounds=(1.0, 2.0, 4.0))
        for _ in range(100):
            h.observe(1.5)  # all land in the (1, 2] bucket
        q = h.quantile(0.5)
        assert 1.0 <= q <= 2.0

    def test_quantile_monotone(self):
        h = Histogram("t_seconds", (), bounds=tuple(LATENCY_BUCKETS))
        for i in range(1, 200):
            h.observe(0.0001 * i)
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_quantile_empty_is_zero(self):
        h = Histogram("t_seconds", (), bounds=(1.0,))
        assert h.quantile(0.5) == 0.0

    def test_quantile_from_buckets_matches_histogram(self):
        h = Histogram("t_seconds", (), bounds=(0.5, 1.0, 2.0))
        for v in (0.1, 0.7, 0.8, 1.5, 3.0):
            h.observe(v)
        pairs = []
        cum = 0.0
        for bound, n in zip(list(h.bounds) + [math.inf], h.counts):
            cum += n
            pairs.append((bound, cum))
        for q in (0.25, 0.5, 0.9):
            assert quantile_from_buckets(pairs, q) == pytest.approx(
                h.quantile(q)
            )


# ----------------------------------------------------------------------
# Snapshot / drain / merge (the cross-process transport)
# ----------------------------------------------------------------------
class TestMerge:
    def test_drain_zeroes_but_keeps_instruments(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("c_total").inc(5)
        reg.histogram("h_seconds").observe(0.1)
        snap = reg.drain()
        assert {s["name"] for s in snap} == {"c_total", "h_seconds"}
        assert reg.find("c_total").value == 0.0
        assert reg.find("h_seconds").count == 0
        reg.counter("c_total").inc()  # same instrument object still live
        assert reg.find("c_total").value == 1.0

    def test_merge_adds_counters_and_histograms(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        for reg, n in ((a, 2), (b, 3)):
            reg.counter("c_total", k="x").inc(n)
            for _ in range(n):
                reg.histogram("h_seconds").observe(0.01)
        a.merge(b.snapshot())
        assert a.find("c_total", k="x").value == 5.0
        assert a.find("h_seconds").count == 5

    def test_merge_gauge_last_writer_wins(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        a.gauge("depth").set(1.0)
        b.gauge("depth").set(7.0)
        a.merge(b.snapshot())
        assert a.find("depth").value == 7.0

    def test_merge_mismatched_bounds_reobserves_at_edges(self):
        a = MetricsRegistry(enabled=True)
        a.histogram("h_seconds", buckets=(1.0, 2.0)).observe(0.5)
        b = MetricsRegistry(enabled=True)
        b.histogram("h_seconds", buckets=(10.0,)).observe(5.0)
        a.merge(b.snapshot())
        merged = a.find("h_seconds")
        # counts are exact; the sum degrades to the bucket upper edge
        # (0.5 locally + the skewed observation clamped to le=10)
        assert merged.count == 2
        assert merged.sum == pytest.approx(10.5)

    def test_module_merge_noop_when_disabled(self):
        src = MetricsRegistry(enabled=True)
        src.counter("c_total").inc()
        metrics.merge(src.snapshot())  # global registry is disabled
        assert list(metrics.get_registry().collect()) == []


# ----------------------------------------------------------------------
# Prometheus exposition + parser round trip
# ----------------------------------------------------------------------
class TestExposition:
    def test_counter_and_gauge_text(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("jobs_total", kind="minimize").inc(4)
        reg.gauge("depth").set(2.0)
        text = reg.to_prometheus()
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{kind="minimize"} 4' in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 2" in text

    def test_histogram_series_cumulative_with_inf(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("t_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = reg.to_prometheus()
        assert 'repro_t_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_t_seconds_bucket{le="1"} 2' in text
        assert 'repro_t_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_t_seconds_count 3" in text
        samples = parse_prometheus_text(text)
        count = [v for n, _, v in samples if n == "repro_t_seconds_count"]
        assert count == [3.0]

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("odd_total", path='a"b\\c\nd').inc()
        samples = parse_prometheus_text(reg.to_prometheus())
        [(name, labels, value)] = samples
        assert name == "repro_odd_total"
        assert labels["path"] == 'a"b\\c\nd'
        assert value == 1.0

    def test_parse_skips_comments_and_blank_lines(self):
        text = "# HELP x_total help\n# TYPE x_total counter\n\nx_total 3\n"
        assert parse_prometheus_text(text) == [("x_total", {}, 3.0)]


# ----------------------------------------------------------------------
# Serve integration: histogram quantiles vs raw-sample percentiles
# ----------------------------------------------------------------------
def _rank_statistic(sample: list[float], q: float) -> float:
    """The order statistic that :meth:`Histogram.quantile`'s rank names.

    The histogram interpolates inside the bucket holding rank
    ``q * count``: the ``ceil(q * count)``-th smallest observation.
    """
    ordered = sorted(sample)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class TestServeHistogram:
    def _run_jobs(self, n=6):
        # Every finished job -- executed or cache hit -- records one
        # latency sample in both the rolling deque and the histogram, so
        # n sequential submits yield n paired samples.
        async def _go():
            svc = AnalysisService(store=None, workers=2, trace_jobs=False)
            for _ in range(n):
                await svc.submit_and_wait(dict(MIN_EX1))
            counters = svc.counters()
            text = svc.metrics_text()
            hist = svc.job_latency_histogram()
            raw = list(svc.stats.latencies)
            await svc.drain(timeout=10)
            return counters, text, hist, raw

        return asyncio.run(_go())

    def test_bucket_quantiles_agree_with_deque_within_bucket_width(self):
        counters, text, hist, raw = self._run_jobs()
        assert hist.count == len(raw) > 0
        for q in (0.5, 0.95, 0.99):
            named = _rank_statistic(raw, q)
            assert abs(hist.quantile(q) - named) <= hist.bucket_width_at(q)

    def test_rank_convention_matters_for_small_samples(self):
        # Interpolating at q * (n - 1) (latency_percentiles) lands between
        # buckets here; the histogram's rank q * count names the 3rd of 6.
        hist = Histogram("t", (), bounds=(1.0, 2.0, 4.0, 8.0))
        raw = [0.5, 0.5, 0.5, 7.0, 7.0, 7.0]
        for value in raw:
            hist.observe(value)
        width = hist.bucket_width_at(0.5)
        assert abs(hist.quantile(0.5) - latency_percentiles(raw)["p50"]) > width
        assert abs(hist.quantile(0.5) - _rank_statistic(raw, 0.5)) <= width

    def test_metrics_text_has_histograms_and_no_duplicate_series(self):
        counters, text, hist, raw = self._run_jobs(n=2)
        assert 'repro_serve_job_seconds_bucket{kind="minimize",le=' in text
        assert "repro_serve_job_seconds_sum" in text
        assert "repro_serve_jobs_total" in text
        # lp/engine histograms from the executor threads are exposed too
        assert "repro_lp_solve_seconds_bucket" in text
        seen = set()
        for name, labels, _ in parse_prometheus_text(text):
            series = (name, tuple(sorted(labels.items())))
            assert series not in seen, f"duplicate series {series}"
            seen.add(series)

    def test_counters_keep_flat_names_for_loadgen(self):
        counters, text, hist, raw = self._run_jobs(n=1)
        assert counters["serve_requests_total"] >= 1
        assert counters["serve_lp_solves_total"] >= 1  # executed once
        assert "serve_job_seconds_wall_sum" in counters


class TestLatencyPercentiles:
    def test_linear_interpolation_small_sample(self):
        pct = latency_percentiles([float(i) for i in range(1, 11)])
        assert pct["p50"] == pytest.approx(5.5)
        assert pct["p95"] == pytest.approx(9.55)
        assert pct["p99"] == pytest.approx(9.91)

    def test_single_sample(self):
        pct = latency_percentiles([3.0])
        assert pct == {"p50": 3.0, "p95": 3.0, "p99": 3.0}


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------
def _exposition(requests=10, ok=8, failed=2, depth=3.0):
    reg = MetricsRegistry(enabled=True)
    reg.counter("serve_requests_total").inc(requests)
    reg.counter("serve_completed_total").inc(ok)
    reg.counter("serve_failed_total").inc(failed)
    reg.counter("serve_executed_total").inc(ok)
    reg.counter("serve_memory_hits_total").inc(2)
    reg.counter("serve_jobs_total", kind="minimize", status="ok").inc(ok)
    reg.counter("serve_jobs_total", kind="minimize", status="error").inc(
        failed
    )
    h = reg.histogram("serve_job_seconds", kind="minimize")
    for i in range(requests):
        h.observe(0.01 * (i + 1))
    reg.gauge("serve_inflight").set(1.0)
    reg.gauge("engine_pool_queue_depth").set(depth)
    return reg.to_prometheus()


class TestTop:
    def test_metrics_view_totals_and_buckets(self):
        view = MetricsView(_exposition(), wall=100.0)
        assert view.total("serve_jobs_total", kind="minimize") == 10.0
        assert view.total("serve_jobs_total", status="error") == 2.0
        assert view.gauge("engine_pool_queue_depth") == 3.0
        buckets = view.buckets("serve_job_seconds")
        assert buckets[-1][0] == math.inf
        assert buckets[-1][1] == 10.0

    def test_bucket_delta_is_window(self):
        before = MetricsView(_exposition(requests=4, ok=4, failed=0), wall=0.0)
        after = MetricsView(_exposition(requests=10), wall=2.0)
        delta = bucket_delta(
            after.buckets("serve_job_seconds"),
            before.buckets("serve_job_seconds"),
        )
        assert delta[-1][1] == 6.0  # +Inf count difference

    def test_render_dashboard_first_and_second_frame(self):
        first = MetricsView(_exposition(requests=4, ok=4, failed=0), wall=10.0)
        frame1 = render_dashboard(first, None)
        assert "first scrape" in frame1
        second = MetricsView(_exposition(), wall=12.0)
        frame2 = render_dashboard(second, first)
        assert "window 2.0s" in frame2
        assert "3.0/s" in frame2  # 6 new requests over 2 s
        assert "minimize" in frame2

    def test_run_top_renders_requested_iterations(self):
        feeds = iter([_exposition(requests=4, ok=4, failed=0), _exposition()])
        frames: list[str] = []
        n = run_top(
            "127.0.0.1:0",
            interval=0.0,
            iterations=2,
            fetch=lambda: next(feeds),
            write=frames.append,
            clear=False,
        )
        assert n == 2
        assert sum("repro top" in f for f in frames) == 2


# ----------------------------------------------------------------------
# repro bench
# ----------------------------------------------------------------------
class TestBench:
    def test_record_twice_same_commit_no_regressions(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        record(path, label="a", only=["minimize_example1"], repeats=1)
        record(path, label="b", only=["minimize_example1"], repeats=1)
        data = load_trajectory(path)
        assert data["version"] == 1
        assert len(data["entries"]) == 2
        # identical code: comfortably inside a generous noise threshold
        report = compare(path, threshold=5.0)
        assert report.ok
        assert report.regressions == []

    def test_injected_slowdown_flagged(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        record(path, label="a", only=["minimize_example1"], repeats=1)
        data = load_trajectory(path)
        entry = json.loads(json.dumps(data["entries"][0]))
        entry["label"] = "slow"
        entry["results"]["minimize_example1"]["seconds"] *= 2.0
        data["entries"].append(entry)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        report = compare(path, threshold=0.2)
        assert not report.ok
        [regression] = report.regressions
        assert regression.name == "minimize_example1"
        assert regression.ratio == pytest.approx(2.0)

    def test_check_mismatch_is_a_regression(self):
        base = {
            "label": "a",
            "results": {"w": {"seconds": 1.0, "check": 110.0}},
        }
        cand = {
            "label": "b",
            "results": {"w": {"seconds": 0.5, "check": 120.0}},
        }
        report = compare_entries(base, cand)
        assert not report.ok
        assert report.regressions[0].check_mismatch

    def test_compare_needs_two_entries(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        record(path, label="only", only=["minimize_example1"], repeats=1)
        with pytest.raises(BenchError):
            compare(path)

    def test_cli_record_and_compare(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_cli.json")
        args = ["bench", "record", path, "--only", "minimize_example1",
                "--repeats", "1"]
        assert main(args) == 0
        assert main(args + ["--label", "second"]) == 0
        assert main(["bench", "compare", path, "--threshold", "5.0"]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_cli_compare_warn_only_exits_zero(self, tmp_path):
        path = str(tmp_path / "BENCH_cli.json")
        main(["bench", "record", path, "--only", "minimize_example1",
              "--repeats", "1"])
        data = load_trajectory(path)
        entry = json.loads(json.dumps(data["entries"][0]))
        entry["results"]["minimize_example1"]["seconds"] *= 3.0
        data["entries"].append(entry)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        assert main(["bench", "compare", path]) == 1
        assert main(["bench", "compare", path, "--warn-only"]) == 0
