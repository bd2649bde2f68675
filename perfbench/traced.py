"""Run one ``repro`` command with every layer wrapped at its call sites.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced.py SPANS_FILE RUN_ID -- minimize design.lcd

The command runs exactly as ``python -m repro ...`` would; in addition
each public layer function is replaced, in every module that binds it,
by a wrapper that records a span (see :mod:`spans`).  The spans are
written to ``SPANS_FILE`` when the command returns -- for ``serve`` that
is after SIGINT has drained the server.
"""

from __future__ import annotations

import sys
import time
from typing import Any

from spans import Recorder


def _solve_layer(recorder: Recorder) -> Any:
    """Which LP pass a ``repro.core.mlp.solve`` call belongs to."""

    def name(args: tuple, kwargs: dict) -> str:
        program = args[0] if args else kwargs["program"]
        if getattr(program, "name", "") == "P2-compact":
            return "lp.compact"
        if recorder.inside("sweep"):
            return "lp.sweep"
        if str(kwargs.get("backend") or "").startswith("cycle"):
            return "cycle.tc"
        return "lp.tc"

    return name


def _solve_counts(result: Any) -> dict[str, int]:
    warm = 1 if result.extra.get("warm_start") == "hit" else 0
    return {"n_pivots": int(result.iterations), "n_warm_hits": warm}


def _rows(smo: Any) -> dict[str, int]:
    return {"n_rows": len(smo.program)}


def install(recorder: Recorder) -> None:
    """Wrap each layer where its caller binds it (the table of the README)."""
    import repro.cli as cli
    import repro.core.mlp as mlp
    import repro.core.parametric as parametric
    import repro.engine.execute as execute
    import repro.lang.parser as parser
    import repro.lint.graphdiag as graphdiag
    import repro.lint.rules as rules
    import repro.serve.service as service
    import repro.serve.store as store

    recorder.wrap(cli, "parse_file", "lang.parse")
    recorder.wrap(parser, "parse_circuit", "lang.parse")
    for module in (mlp, parametric, graphdiag, execute):
        recorder.wrap(module, "build_program", "core.constraints.build", _rows)
    recorder.wrap(mlp, "solve", _solve_layer(recorder), _solve_counts)
    recorder.wrap(
        mlp, "slide", "maxplus.slide", lambda fix: {"n_sweeps": fix.iterations}
    )
    recorder.wrap(mlp, "analyze", "core.analysis.verify")
    for module in (cli, rules, service):
        recorder.wrap(module, "run_rules", "lint.rules")
    for module in (cli, rules, service, execute):
        recorder.wrap(module, "diagnose", "lint.diagnose")
    recorder.wrap(cli, "sweep_delay", "sweep")
    _install_serve(recorder, service.AnalysisService, store.ResultStore)


def _install_serve(recorder: Recorder, service_cls: Any, store_cls: Any) -> None:
    """Admission on the loop, execution and store I/O on executor threads."""
    submit = service_cls.submit

    async def traced_submit(self: Any, request: object) -> Any:
        span = recorder.begin("serve.admission")
        try:
            record = await submit(self, request)
        finally:
            recorder.end(span)
        span["rid"] = record.key
        return record

    service_cls.submit = traced_submit

    # Queue wait: from the moment a job is handed to the executor (the
    # warm-start preparation runs right before run_in_executor) until an
    # executor thread starts it.
    queued: dict[int, float] = {}
    prepare = service_cls._with_warm_start

    def traced_prepare(self: Any, job: Any) -> Any:
        prepared = prepare(self, job)
        queued[id(prepared)] = time.perf_counter()
        return prepared

    service_cls._with_warm_start = traced_prepare
    execute = service_cls._execute

    def traced_execute(self: Any, job: Any, key: str) -> Any:
        enqueued = queued.pop(id(job), None)
        span = recorder.begin("engine.execute", rid=key)
        if enqueued is not None:
            span["queue_wait_s"] = span["start"] - enqueued
        try:
            return execute(self, job, key)
        finally:
            recorder.end(span)

    service_cls._execute = traced_execute
    recorder.wrap(service_cls, "_execute_sweep", "sweep")
    recorder.wrap(store_cls, "get", "serve.store")
    recorder.wrap(store_cls, "put", "serve.store")


def main(argv: list[str]) -> int:
    spans_path, rid, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_FILE RUN_ID -- COMMAND...")
    recorder = Recorder(rid)
    span = recorder.begin("cli.import")
    import repro.cli

    recorder.end(span)
    install(recorder)
    # A server's main span would only measure how long it idled.
    span = recorder.begin("cli.main") if command[0] != "serve" else None
    try:
        return repro.cli.main(command)
    finally:
        if span is not None:
            recorder.end(span)
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
