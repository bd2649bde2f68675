"""Tests for the analysis service layer (repro.serve)."""

import asyncio
import http.client
import json

import pytest

import repro.cli
import repro.core.mlp
import repro.core.parametric
import repro.engine.execute
import repro.lint.graphdiag
import repro.lint.rules
import repro.serve.service
from repro.cli import main
from repro.engine import Engine
from repro.serve import (
    AnalysisService,
    RequestError,
    ResultStore,
    ServiceUnavailableError,
    job_from_request,
    latency_percentiles,
    run_in_thread,
    run_load,
)
from repro.serve.loadgen import load_mix

MIN_EX1 = {"kind": "minimize", "design": "example1"}
EX1_SCHEDULE = {
    "period": 110.0,
    "phases": [
        {"name": "phi1", "start": 0.0, "width": 50.0},
        {"name": "phi2", "start": 55.0, "width": 50.0},
    ],
}


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_minimize_request(self):
        job = job_from_request(MIN_EX1)
        assert job.kind == "minimize"

    def test_unknown_kind_rejected(self):
        with pytest.raises(RequestError, match="unknown job kind"):
            job_from_request({"kind": "optimize", "design": "example1"})

    def test_unknown_key_rejected_not_ignored(self):
        with pytest.raises(RequestError, match="unknown minimize request key"):
            job_from_request({**MIN_EX1, "optionz": {}})

    def test_unknown_option_rejected(self):
        with pytest.raises(RequestError, match="unknown 'options' key"):
            job_from_request({**MIN_EX1, "options": {"min_widht": 5.0}})

    def test_design_and_source_mutually_exclusive(self):
        with pytest.raises(RequestError, match="exactly one"):
            job_from_request({"kind": "minimize"})
        with pytest.raises(RequestError, match="exactly one"):
            job_from_request(
                {"kind": "minimize", "design": "example1", "source": "x"}
            )

    def test_inline_source(self):
        from repro.designs import example1
        from repro.lang.writer import write_circuit

        job = job_from_request(
            {"kind": "minimize", "source": write_circuit(example1())}
        )
        assert job.kind == "minimize"

    def test_analyze_needs_schedule(self):
        with pytest.raises(RequestError, match="needs a 'schedule'"):
            job_from_request({"kind": "analyze", "design": "example1"})

    def test_sweep_request(self):
        job = job_from_request(
            {
                "kind": "sweep",
                "design": "example1",
                "src": "L4",
                "dst": "L1",
                "lo": 0.0,
                "hi": 120.0,
                "points": 5,
            }
        )
        assert len(job.grid) == 5

    def test_identical_requests_share_a_key(self):
        from repro.engine.jobspec import job_key

        assert job_key(job_from_request(MIN_EX1)) == job_key(
            job_from_request(dict(MIN_EX1))
        )


# ----------------------------------------------------------------------
# Service core
# ----------------------------------------------------------------------
class TestService:
    def test_result_bit_identical_to_engine(self):
        async def _go():
            svc = AnalysisService(store=None, workers=1)
            record = await svc.submit_and_wait(MIN_EX1)
            await svc.drain(timeout=5)
            return record.result

        served = run(_go())
        direct = Engine(jobs=1).run_jobs([job_from_request(MIN_EX1)])[0]
        assert served.key == direct.key
        assert served.value == direct.value
        assert served.payload == direct.payload

    def test_coalescing_executes_once(self):
        async def _go():
            svc = AnalysisService(store=None, workers=4)
            records = await asyncio.gather(
                *[svc.submit(dict(MIN_EX1)) for _ in range(6)]
            )
            await asyncio.gather(*[svc.wait(r) for r in records])
            counters = svc.counters()
            await svc.drain(timeout=5)
            return records, counters

        records, counters = run(_go())
        assert counters["serve_executed_total"] == 1
        assert counters["serve_coalesced_total"] == 5
        values = {r.result.value for r in records}
        assert len(values) == 1
        sources = sorted(r.source for r in records)
        assert sources.count("executed") == 1
        assert sources.count("coalesced") == 5

    def test_restart_serves_from_store_with_zero_lp(self, tmp_path):
        path = str(tmp_path / "s.sqlite")

        async def _first():
            store = ResultStore(path)
            svc = AnalysisService(store=store, workers=1)
            record = await svc.submit_and_wait(MIN_EX1)
            await svc.drain(timeout=5)
            store.close()
            return record.result.value

        async def _second():
            store = ResultStore(path)
            svc = AnalysisService(store=store, workers=1)
            record = await svc.submit_and_wait(MIN_EX1)
            counters = svc.counters()
            await svc.drain(timeout=5)
            store.close()
            return record, counters

        value = run(_first())
        record, counters = run(_second())
        assert record.source == "store"
        assert record.result.value == value
        assert counters["serve_lp_solves_total"] == 0
        assert counters["serve_store_hits_total"] == 1

    def test_lint_admission_rejects_bad_request(self):
        # A max_period below the provable Tc lower bound fails the lint
        # pre-flight with a certificate -- the job is never executed.
        async def _go():
            svc = AnalysisService(store=None, workers=1)
            record = await svc.submit_and_wait(
                {**MIN_EX1, "options": {"max_period": 1.0}}
            )
            counters = svc.counters()
            await svc.drain(timeout=5)
            return record, counters

        record, counters = run(_go())
        assert record.status == "rejected"
        assert counters["serve_executed_total"] == 0
        assert counters["serve_rejected_total"] == 1

    def test_sweep_job_through_service(self):
        async def _go():
            svc = AnalysisService(store=None, workers=1)
            record = await svc.submit_and_wait(
                {
                    "kind": "sweep",
                    "design": "example1",
                    "src": "L4",
                    "dst": "L1",
                    "grid": [0.0, 40.0, 80.0, 120.0],
                }
            )
            await svc.drain(timeout=5)
            return record

        record = run(_go())
        assert record.status == "done"
        assert len(record.result.payload["points"]) == 4

    def test_draining_service_refuses_new_jobs(self):
        async def _go():
            svc = AnalysisService(store=None, workers=1)
            await svc.drain(timeout=5)
            with pytest.raises(ServiceUnavailableError):
                await svc.submit(MIN_EX1)

        run(_go())

    def test_progress_events_cover_lifecycle(self):
        async def _go():
            svc = AnalysisService(store=None, workers=1)
            record = await svc.submit_and_wait(MIN_EX1)
            await svc.drain(timeout=5)
            return [e["event"] for e in record.events]

        names = run(_go())
        assert names[0] == "queued"
        assert "started" in names
        assert names[-1] == "finished"
        assert "span" in names  # bridged from the job's private tracer

    def test_latency_percentiles(self):
        samples = [float(i) for i in range(1, 101)]
        pct = latency_percentiles(samples)
        assert pct["p50"] == pytest.approx(50.0, abs=1.0)
        assert pct["p95"] == pytest.approx(95.0, abs=1.0)
        assert pct["p99"] == pytest.approx(99.0, abs=1.0)
        assert pct["p50"] <= pct["p95"] <= pct["p99"]
        assert latency_percentiles([]) == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestOnePreflight:
    """A capped minimize is diagnosed once, on the circuit the engine solves."""

    @staticmethod
    def _serve(request, lint=True):
        async def _go():
            svc = AnalysisService(store=None, workers=1, lint=lint)
            record = await svc.submit_and_wait(request)
            await svc.drain(timeout=5)
            return record

        return run(_go())

    @staticmethod
    def _count_layers(monkeypatch):
        """Count build_program and diagnose calls wherever they are bound."""
        counts = {"build_program": 0, "diagnose": 0}
        modules = {
            "build_program": (
                repro.core.mlp,
                repro.core.parametric,
                repro.lint.graphdiag,
                repro.engine.execute,
            ),
            "diagnose": (
                repro.cli,
                repro.lint.rules,
                repro.serve.service,
                repro.engine.execute,
            ),
        }
        for name, bound_in in modules.items():
            for module in bound_in:

                def counted(*args, _name=name, _inner=getattr(module, name), **kw):
                    counts[_name] += 1
                    return _inner(*args, **kw)

                monkeypatch.setattr(module, name, counted)
        return counts

    def test_override_within_the_cap_is_solved(self):
        # example1 with Delta_41 = 40 has Tc = 90 (Fig. 7), under the cap;
        # the unmodified circuit's 110 is not what the engine solves.
        record = self._serve(
            {
                **MIN_EX1,
                "arc_override": ["L4", "L1", 40],
                "options": {"max_period": 100},
            }
        )
        assert record.status == "done", record.error
        assert record.result.value == 90.0

    def test_override_above_the_cap_is_rejected(self):
        record = self._serve(
            {
                **MIN_EX1,
                "arc_override": ["L4", "L1", 100],
                "options": {"max_period": 115},
            }
        )
        assert record.status == "rejected"
        assert "requires Tc >= 120" in record.error

    def test_capped_minimize_builds_and_diagnoses_once(self, monkeypatch):
        counts = self._count_layers(monkeypatch)
        record = self._serve({**MIN_EX1, "options": {"max_period": 200}})
        assert record.status == "done"
        assert record.result.value == 110.0
        assert counts == {"build_program": 1, "diagnose": 1}
        assert record.result.payload["lint"]["feasible"] is True
        assert record.result.payload["compact"]["used"] is True

    def test_without_lint_the_engine_runs_its_preflight(self, monkeypatch):
        counts = self._count_layers(monkeypatch)
        record = self._serve(
            {**MIN_EX1, "options": {"max_period": 200}}, lint=False
        )
        assert record.status == "done"
        assert counts == {"build_program": 1, "diagnose": 1}
        assert record.result.payload["lint"]["feasible"] is True

    def test_result_equals_the_engine_preflight(self):
        request = {
            **MIN_EX1,
            "arc_override": ["L4", "L1", 60],
            "options": {"max_period": 120},
        }
        served = self._serve(request).result
        direct = Engine(jobs=1).run_jobs([job_from_request(request)])[0]
        assert served.key == direct.key
        assert served.value == direct.value == 100.0
        assert served.payload == direct.payload

    def test_requests_cannot_set_the_preflight(self):
        with pytest.raises(RequestError):
            job_from_request({**MIN_EX1, "preflight": {"feasible": True}})


# ----------------------------------------------------------------------
# HTTP server end to end
# ----------------------------------------------------------------------
@pytest.fixture
def server(tmp_path):
    store = ResultStore(str(tmp_path / "serve.sqlite"))
    handle = run_in_thread(AnalysisService(store=store, workers=2))
    yield handle
    handle.stop()


def _request(handle, method, path, body=None):
    conn = http.client.HTTPConnection(
        handle.server.host, handle.server.port, timeout=30
    )
    payload = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=payload)
    response = conn.getresponse()
    raw = response.read().decode()
    conn.close()
    if "json" in response.getheader("Content-Type", ""):
        return response.status, json.loads(raw)
    return response.status, raw


class TestHttpServer:
    def test_healthz(self, server):
        status, body = _request(server, "GET", "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["status"] == "serving"

    def test_post_wait_round_trip(self, server):
        status, body = _request(server, "POST", "/v1/jobs?wait=1", MIN_EX1)
        assert status == 200
        assert body["status"] == "done"
        assert body["result"]["value"] == pytest.approx(110.0)

    def test_async_submit_then_poll(self, server):
        status, body = _request(server, "POST", "/v1/jobs", MIN_EX1)
        assert status == 202
        job_id = body["id"]
        status, body = _request(server, "GET", f"/v1/jobs/{job_id}?wait=1")
        assert status == 200
        assert body["status"] == "done"

    def test_batch_submission(self, server):
        status, body = _request(
            server,
            "POST",
            "/v1/jobs?wait=1",
            {
                "jobs": [
                    MIN_EX1,
                    {"kind": "minimize", "design": "example2"},
                ]
            },
        )
        assert status == 200
        assert [j["status"] for j in body["jobs"]] == ["done", "done"]
        assert body["jobs"][0]["result"]["value"] == pytest.approx(110.0)
        assert body["jobs"][1]["result"]["value"] == pytest.approx(300.0)

    def test_result_lookup_by_key(self, server):
        _, body = _request(server, "POST", "/v1/jobs?wait=1", MIN_EX1)
        status, result = _request(
            server, "GET", f"/v1/results/{body['key']}"
        )
        assert status == 200
        assert result["value"] == pytest.approx(110.0)
        status, _ = _request(server, "GET", "/v1/results/deadbeef")
        assert status == 404

    def test_metrics_exposition(self, server):
        _request(server, "POST", "/v1/jobs?wait=1", MIN_EX1)
        status, text = _request(server, "GET", "/metrics")
        assert status == 200
        assert "repro_serve_requests_total 1" in text
        assert "repro_serve_executed_total 1" in text
        assert "repro_serve_latency_seconds_p50" in text

    def test_bad_requests_get_400(self, server):
        status, body = _request(
            server, "POST", "/v1/jobs?wait=1", {"kind": "minimize"}
        )
        assert status == 400
        assert "exactly one" in body["error"]
        status, _ = _request(server, "GET", "/v1/jobs/j999999")
        assert status == 404
        status, _ = _request(server, "DELETE", "/v1/jobs")
        assert status == 405

    def test_removed_mlp_key_gets_400(self, server):
        request = dict(MIN_EX1, mlp={"warm_start": True})
        status, body = _request(server, "POST", "/v1/jobs?wait=1", request)
        assert status == 400
        assert "'warm_start'" in body["error"]

    def test_sse_stream_replays_events(self, server):
        _, posted = _request(server, "POST", "/v1/jobs?wait=1", MIN_EX1)
        conn = http.client.HTTPConnection(
            server.server.host, server.server.port, timeout=30
        )
        conn.request("GET", f"/v1/jobs/{posted['id']}?stream=1")
        response = conn.getresponse()
        assert response.getheader("Content-Type") == "text/event-stream"
        raw = response.read().decode()
        conn.close()
        names = [
            line.split(": ", 1)[1]
            for line in raw.splitlines()
            if line.startswith("event: ")
        ]
        assert names[0] == "queued"
        assert "finished" in names
        assert names[-1] == "end"
        # Each event body is valid JSON.
        for line in raw.splitlines():
            if line.startswith("data: "):
                json.loads(line[6:])

    def test_loadgen_against_server(self, server):
        report = run_load(server.url, requests=8, concurrency=2, seed=3)
        assert report.errors == 0
        assert report.requests == 8
        assert report.percentiles["p99"] > 0.0

    def test_loadgen_mix_fixture(self, server):
        mix = load_mix("examples/loadgen_mix.json")
        assert len(mix) == 7
        report = run_load(
            server.url, mix=mix, requests=10, concurrency=2, seed=5
        )
        assert report.errors == 0
        assert report.counter_delta("serve_executed_total") >= 1


class TestServeCli:
    def test_loadgen_cli_reports(self, server, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(
            [
                "loadgen",
                "--url",
                server.url,
                "--requests",
                "6",
                "--concurrency",
                "2",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "latency" in out
        data = json.loads(out_file.read_text())
        assert data["requests"] == 6
        assert data["errors"] == 0
        assert "latency_p99_ms" in data

    def test_loadgen_cli_json_format(self, server, capsys):
        assert main(
            ["loadgen", "--url", server.url, "--requests", "4",
             "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["errors"] == 0
