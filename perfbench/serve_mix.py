"""The ``serve_mix`` workload: ``repro serve`` under an open-loop schedule.

One server child (default two workers, a fresh SQLite store) receives a
seeded, fixed schedule of requests from two client threads, each with one
persistent connection:

* the *small* thread submits paper-design ``minimize`` (with seeded
  ``arc_override`` values from a small grid, so keys repeat), ``analyze``,
  ``sweep`` and ``baseline`` requests at a fixed rate (one arrival at a
  seeded time in each slot) without waiting for results, plus
  ``/healthz`` probes on a fixed cadence;
* the *big* thread submits inline ~500-latch ``minimize`` requests with
  ``backend: cycle`` and a capped clock: feasible ones (cap above the
  optimum) and ones capped below it, which must be rejected with a
  ``period`` certificate.

Latency runs from each request's *scheduled* send time to the server's
finish time, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import signal
import socket
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from inputs import (
    PAPER_DESIGNS,
    close,
    example1_nrip_tc,
    example1_tc,
    generated,
    paper_design,
    scipy_tc,
    set_arc_delay,
)
from proc import BenchError, Children
from stats import Outcome

#: Small requests answered correctly within this limit count as on time.
LATENCY_LIMIT_S = 0.250

#: Small-request arrival rate (1/s).  Results are fetched after the
#: schedule, so one run's jobs must fit the server's default 1024 retained
#: job records; 20/s gives 600 samples in 30 s, and alone keeps the server
#: far from saturation (see README.md).
SMALL_RATE = 20.0
#: One /healthz probe per latency limit, so any longer loop stall is seen.
HEALTH_INTERVAL = LATENCY_LIMIT_S

#: A feasible big request starts every this many seconds and runs for
#: most of the period, so small requests nearly always share the server
#: with one; a rejected big request arrives while it runs.
BIG_PERIOD_S = 13.0

#: Server starts measured for ``setup_s``.
SERVER_STARTS = 9

_RESULTS = re.compile(r'^(?:repro_)?serve_results_total\{([^}]*)\} (\S+)$', re.M)


@dataclass
class Request:
    """One scheduled request and how to judge its answer."""

    at: float
    kind: str  # small | big | health
    label: str
    body: dict[str, Any] | None = None
    check: Callable[[dict[str, Any]], str | None] | None = None
    # filled in when sent
    sent: float = 0.0
    latency: float = 0.0
    error: str | None = None


def _done_value(expected: float) -> Callable[[dict], str | None]:
    def check(reply: dict[str, Any]) -> str | None:
        if reply.get("status") != "done":
            return f"status {reply.get('status')}: {reply.get('error')}"
        value = (reply.get("result") or {}).get("value")
        if value is None or not close(float(value), expected, rel=1e-6):
            return f"value {value} != reference {expected:.9g}"
        return None

    return check


def _feasible(expected: bool) -> Callable[[dict], str | None]:
    def check(reply: dict[str, Any]) -> str | None:
        if reply.get("status") != "done":
            return f"status {reply.get('status')}: {reply.get('error')}"
        found = (reply["result"].get("payload") or {}).get("feasible")
        return None if found is expected else f"feasible {found}, expected {expected}"

    return check


def _sweep_points(
    reference: Callable[[float], float],
) -> Callable[[dict], str | None]:
    def check(reply: dict[str, Any]) -> str | None:
        if reply.get("status") != "done":
            return f"status {reply.get('status')}: {reply.get('error')}"
        points = (reply["result"].get("payload") or {}).get("points") or []
        if not points:
            return "no sweep points"
        for x, tc in points:
            if not close(float(tc), reference(float(x)), rel=1e-6):
                return f"Tc({x:g}) = {tc} != reference {reference(float(x)):.9g}"
        return None

    return check


def _rejected(cap: float, tc: float) -> Callable[[dict], str | None]:
    def check(reply: dict[str, Any]) -> str | None:
        if reply.get("status") != "rejected":
            return (f"status {reply.get('status')}, expected rejected "
                    f"(cap {cap:g} < Tc {tc:g})")
        # The wording of a ``period`` infeasibility certificate.
        if "requires Tc >=" not in str(reply.get("error")):
            return f"not a period certificate: {str(reply.get('error'))[:120]}"
        return None

    return check


class SmallCatalog:
    """Seeded small requests over the paper designs, with references."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        designs = {name: paper_design(name) for name in PAPER_DESIGNS}
        # Per design: one arc and a 4-value override grid drawn from the seed.
        self.grids: dict[str, list[tuple[str, str, float, float]]] = {}
        for name, design in designs.items():
            if name == "example1":
                values = rng.sample(range(40, 130, 10), 4)
                self.grids[name] = [
                    ("L4", "L1", float(v), example1_tc(v)) for v in values
                ]
                continue
            src, dst, nominal = rng.choice(design.arcs())
            grid = []
            for factor in rng.sample([0.6, 0.8, 0.9, 1.1, 1.2, 1.4], 4):
                delay = round(nominal * factor, 3)
                tc = scipy_tc(set_arc_delay(design.text, src, dst, delay))
                grid.append((src, dst, delay, tc))
            self.grids[name] = grid
        self.example1_text = designs["example1"].text

    def draw(self, at: float) -> Request:
        """One small request: the four kinds are equally likely."""
        rng = self.rng
        kind = rng.choice(("minimize", "analyze", "sweep", "baseline"))
        if kind == "minimize":
            name = rng.choice(PAPER_DESIGNS)
            src, dst, delay, tc = rng.choice(self.grids[name])
            body: dict[str, Any] = {"kind": "minimize", "design": name,
                                    "arc_override": [src, dst, delay]}
            return Request(at, "small", f"minimize {name}", body, _done_value(tc))
        if kind == "analyze":
            feasible = rng.random() < 0.5
            period = float(rng.choice([150, 180, 200, 240] if feasible
                                      else [80, 90, 100, 105]))
            schedule = {"period": period, "phases": [
                {"name": "phi1", "start": 0.0, "width": 0.45 * period},
                {"name": "phi2", "start": 0.5 * period, "width": 0.45 * period},
            ]}
            body = {"kind": "analyze", "design": "example1", "schedule": schedule}
            return Request(at, "small", "analyze example1", body, _feasible(feasible))
        if kind == "sweep":
            lo, hi = rng.choice([(0.0, 120.0), (0.0, 140.0), (20.0, 120.0),
                                 (20.0, 140.0)])
            body = {"kind": "sweep", "design": "example1", "src": "L4",
                    "dst": "L1", "lo": lo, "hi": hi, "points": 5}
            return Request(at, "small", "sweep example1", body,
                           _sweep_points(example1_tc))
        delta = float(rng.choice([60, 80, 100, 120]))
        source = set_arc_delay(self.example1_text, "L4", "L1", delta)
        body = {"kind": "baseline", "source": source, "algorithm": "nrip"}
        return Request(at, "small", "baseline nrip", body,
                       _done_value(example1_nrip_tc(delta)))


def schedule(rng: random.Random, seconds: float, quick: bool) -> list[Request]:
    """The whole open-loop schedule of one run, sorted by send time."""
    catalog = SmallCatalog(rng)
    requests: list[Request] = []
    # One arrival at a uniform time in each 1/rate slot: open loop at a
    # fixed rate, with the same number of arrivals in any stall window.
    for slot in range(int(seconds * SMALL_RATE)):
        requests.append(catalog.draw((slot + rng.random()) / SMALL_RATE))
    probes = int(seconds / HEALTH_INTERVAL)
    requests += [Request(i * HEALTH_INTERVAL, "health", "healthz")
                 for i in range(probes)]
    period = min(BIG_PERIOD_S, seconds)
    banks, depth = (4, 4) if quick else (36, 14)  # 506 latches
    for index in range(math.ceil(seconds / period)):
        for offset, feasible in ((0.0, True), (0.36, False)):
            design = generated(rng, "banked", banks, depth, name=f"big{index}")
            cap = round(design.tc * (1.2 if feasible else 0.9), 3)
            body = {"kind": "minimize", "source": design.text,
                    "mlp": {"backend": "cycle"}, "options": {"max_period": cap}}
            check = _done_value(design.tc) if feasible else _rejected(cap, design.tc)
            label = (f"big {'feasible' if feasible else 'capped'} "
                     f"{design.latches} latches")
            at = 0.5 + (index + offset) * period
            requests.append(Request(at, "big", label, body, check))
    return sorted(requests, key=lambda r: r.at)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


class Client:
    """One persistent HTTP connection; reconnects after a transport error."""

    def __init__(self, port: int, deadline: float) -> None:
        self.port = port
        self.deadline = deadline
        self.conn: http.client.HTTPConnection | None = None

    def call(self, method: str, path: str,
             body: dict[str, Any] | None = None) -> tuple[int, bytes]:
        timeout = max(1.0, self.deadline - time.monotonic())
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=timeout)
        try:
            if body is None:
                self.conn.request(method, path)
            else:
                self.conn.request(method, path, json.dumps(body),
                                  {"Content-Type": "application/json"})
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Server:
    """One ``repro serve`` child."""

    def __init__(self, children: Children, store: str, rid: str) -> None:
        self.children = children
        self.port = _free_port()
        argv = children.argv(
            ["serve", "--port", str(self.port), "--store", store], rid)
        self.started = time.perf_counter()
        self.proc, self.out, self.err = children.spawn(argv)

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/healthz`` first answers 200."""
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with {self.proc.returncode}")
            if time.monotonic() > self.children.deadline:
                raise BenchError("server did not become ready")
            probe = Client(self.port, self.children.deadline)
            try:
                if probe.call("GET", "/healthz")[0] == 200:
                    return time.perf_counter() - self.started
            except (OSError, http.client.HTTPException):
                pass
            finally:
                probe.close()
            time.sleep(0.005)

    def stop(self) -> None:
        """Drain via SIGINT and reap (peak RSS lands in ``children``)."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            self.children.reap(self.proc, self.out, self.err, self.started)


def _results_by_source(client: Client) -> dict[str, float]:
    """``serve_results_total`` summed per source (memory, store, ...)."""
    _, text = client.call("GET", "/metrics")
    totals: dict[str, float] = {}
    for labels, value in _RESULTS.findall(text.decode()):
        source = re.search(r'source="([^"]*)"', labels)
        if source:
            totals[source[1]] = totals.get(source[1], 0.0) + float(value)
    return totals


def _at(origin: float, request: Request) -> None:
    delay = origin + request.at - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    request.sent = time.perf_counter()


def _drive(client: Client, requests: list[Request], origin: float,
           wall_origin: float) -> None:
    """Submit each request on time without waiting for its result.

    A request's latency runs from its scheduled time to the server's
    finish time, so a slow job never delays the submission of the next
    one; a stalled event loop delays both.  Results are fetched and
    checked once the schedule has been sent.
    """
    submitted: list[tuple[Request, str]] = []
    for request in requests:
        _at(origin, request)
        try:
            if request.kind == "health":
                status, payload = client.call("GET", "/healthz")
                request.latency = time.perf_counter() - request.sent
            else:
                status, payload = client.call("POST", "/v1/jobs", request.body)
        except (OSError, http.client.HTTPException) as err:
            request.error = f"{type(err).__name__}: {err}"
            continue
        if status not in (200, 202):
            request.error = f"HTTP {status}: {payload[:160]!r}"
        elif request.kind != "health":
            submitted.append((request, json.loads(payload)["id"]))
    for request, job_id in submitted:
        try:
            status, payload = client.call("GET", f"/v1/jobs/{job_id}?wait=1")
        except (OSError, http.client.HTTPException) as err:
            request.error = f"{type(err).__name__}: {err}"
            continue
        if status != 200:
            request.error = f"HTTP {status}: {payload[:160]!r}"
            continue
        reply = json.loads(payload)
        request.latency = (reply.get("finished_at") or 0.0) - (
            wall_origin + request.at)
        if request.check is not None:
            request.error = request.check(reply)


def p95(values: list[float]) -> float:
    """The 95th percentile, interpolated between ranks."""
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def _setup_seconds(children: Children, store: str, rid: str) -> float:
    """Start a server, time it to ready, and stop it."""
    server = Server(children, store, rid)
    try:
        return server.wait_ready()
    finally:
        server.stop()


def run(children: Children, workdir: str, rng: random.Random, seconds: float,
        quick: bool, outcome: Outcome) -> None:
    """Set up, drive and check one ``serve_mix`` run."""
    requests = schedule(rng, seconds, quick)
    store = os.path.join(workdir, "results.sqlite")
    # Set-up is sampled before and after the load, so one slow stretch of
    # the machine cannot set the median; one more start serves the load.
    setups = [_setup_seconds(children, store, f"setup{i}")
              for i in range(SERVER_STARTS // 2)]
    server = Server(children, store, "server")
    try:
        setups.append(server.wait_ready())
        clients = [Client(server.port, children.deadline) for _ in range(2)]
        before = _results_by_source(clients[0])
        origin = time.perf_counter() + 0.05
        wall_origin = time.time() + (origin - time.perf_counter())
        threads = [
            threading.Thread(target=_drive, args=(
                client, [r for r in requests if (r.kind == "big") == big],
                origin, wall_origin))
            for client, big in zip(clients, (False, True))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = _results_by_source(clients[0])
        for client in clients:
            client.close()
    finally:
        server.stop()
    setups += [_setup_seconds(children, store, f"restart{i}")
               for i in range(SERVER_STARTS - 1 - SERVER_STARTS // 2)]

    for request in requests:
        outcome.check(f"{request.label} @{request.at:.2f}s", request.error)
    small = [r.latency for r in requests if r.kind == "small"]
    big = [r for r in requests if r.kind == "big"]
    feasible = [r.latency for r in big if "feasible" in r.label]
    on_time = [r for r in requests if r.kind == "small" and r.error is None
               and r.latency <= LATENCY_LIMIT_S]
    outcome.metrics.update({
        "setup_s": (statistics.median(setups), "s"),
        "ops_s": (sum(r.latency for r in big), "s"),
        "big_s": (statistics.median(feasible), "s"),
        "ok_frac": (len(on_time) / len(small), "ratio"),
    })
    outcome.detail.update({
        "serve_p50_s": (statistics.median(small), "s"),
        "serve_p95_s": (p95(small), "s"),
        "serve_big_s": outcome.metrics["big_s"],
        "serve_reject_s": (
            statistics.median([r.latency for r in big if "capped" in r.label]), "s"),
        "serve_ok_frac": outcome.metrics["ok_frac"],
        "small_requests": (float(len(small)), "count"),
    })
    delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    total = sum(delta.values())
    hits = delta.get("memory", 0.0) + delta.get("store", 0.0)
    health = [r.latency for r in requests if r.kind == "health"]
    lags = [r.sent - origin - r.at for r in requests]
    outcome.layers.update({
        "serve.hit_frac": (hits / total if total else 0.0, "ratio"),
        "serve.coalesced": (delta.get("coalesced", 0.0), "count"),
        "serve.loop_lag_s": (p95(health), "s"),
        "loadgen.lag_s": (p95(lags), "s"),
    })
