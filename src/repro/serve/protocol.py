"""JSON wire format of the analysis service: requests in, engine jobs out.

A *request* is a plain JSON object describing one timing job.  The serve
layer converts it into one of the declarative engine jobs (so the job's
canonical content hash -- the coalescing and storage key -- is computed by
exactly the same code the batch CLI uses), runs it, and ships the plain
:class:`~repro.engine.jobspec.JobResult` payload back out as JSON.

Request shape::

    {
      "kind":    "minimize" | "analyze" | "baseline" | "sweep",
      # exactly one circuit source:
      "design":  "example1" | "example2" | "fig1" | "gaas",
      "source":  "<.lcd circuit text>",
      # optional, per kind:
      "options":  {"min_width": 5.0, ...},          # ConstraintOptions
      "mlp":      {"backend": "revised", ...},      # MLPOptions
      "schedule": {"period": 110, "phases": [...]}, # analyze only
      "algorithm": "nrip",                          # baseline only
      "src": "L4", "dst": "L1",                     # sweep only
      "grid": [0, 10, ...] | "lo"/"hi"/"points",    # sweep only
      "arc_override": ["L4", "L1", 95.0],           # minimize only
      "label": "anything"
    }

Unknown keys are rejected rather than ignored: a typo'd option silently
falling back to a default would return a *wrong answer with a 200*, the
worst failure mode an analysis service can have.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.circuit.graph import TimingGraph
from repro.clocking.phase import ClockPhase
from repro.clocking.schedule import ClockSchedule
from repro.core.constraints import ConstraintOptions
from repro.core.mlp import MLPOptions
from repro.designs import example1, example2, fig1_circuit, gaas_datapath
from repro.engine.jobspec import (
    AnalyzeJob,
    BaselineJob,
    Job,
    MinimizeJob,
    SweepJob,
)
from repro.errors import ReproError
from repro.lp.backends import available_backends

#: Version of the request/response wire format.
PROTOCOL_VERSION = 1

#: The bundled paper designs addressable by name in a request.
DESIGNS: dict[str, Callable[[], TimingGraph]] = {
    "example1": example1,
    "example2": example2,
    "fig1": fig1_circuit,
    "gaas": gaas_datapath,
}

_JOB_KINDS = ("minimize", "analyze", "baseline", "sweep")

_COMMON_KEYS = {"kind", "design", "source", "options", "mlp", "label"}
_ALLOWED_KEYS = {
    "minimize": _COMMON_KEYS | {"arc_override"},
    "analyze": _COMMON_KEYS | {"schedule"},
    "baseline": _COMMON_KEYS | {"algorithm"},
    "sweep": _COMMON_KEYS | {"src", "dst", "grid", "lo", "hi", "points",
                             "slope_tol"},
}

_OPTION_KEYS = (
    "min_width",
    "min_separation",
    "setup_margin",
    "fixed_period",
    "max_period",
    "fixed_starts",
    "fixed_widths",
    "zero_departure_phases",
)

_MLP_KEYS = (
    "backend",
    "iteration",
    "verify",
    "compact",
    "tol",
    "kernel",
    "sanitize",
)


class RequestError(ReproError):
    """A malformed service request (maps to HTTP 400)."""


def _require_mapping(value: object, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise RequestError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _reject_unknown(data: Mapping, allowed: Iterable[str], what: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise RequestError(
            f"unknown {what} key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def graph_from_request(request: Mapping) -> tuple[TimingGraph, ClockSchedule | None]:
    """Resolve the request's circuit: a bundled design or inline .lcd source.

    Returns the graph plus the schedule embedded in inline source (None
    when the source carries no concrete clock, and always for bundled
    designs, which are structural).
    """
    design = request.get("design")
    source = request.get("source")
    if (design is None) == (source is None):
        raise RequestError(
            "a request needs exactly one of 'design' (bundled name) "
            "or 'source' (inline .lcd text)"
        )
    if design is not None:
        factory = DESIGNS.get(str(design))
        if factory is None:
            raise RequestError(
                f"unknown design {design!r}; bundled designs: "
                f"{sorted(DESIGNS)}"
            )
        return factory(), None
    from repro.lang.parser import parse_circuit

    decl = parse_circuit(str(source))
    return decl.to_graph(), decl.to_schedule()


def options_from_request(data: object) -> ConstraintOptions | None:
    if data is None:
        return None
    mapping = _require_mapping(data, "'options'")
    _reject_unknown(mapping, _OPTION_KEYS, "'options'")
    kwargs = dict(mapping)
    if "zero_departure_phases" in kwargs:
        kwargs["zero_departure_phases"] = tuple(kwargs["zero_departure_phases"])
    try:
        return ConstraintOptions(**kwargs)
    except (TypeError, ValueError) as err:
        raise RequestError(f"bad 'options': {err}") from err


def mlp_from_request(data: object) -> MLPOptions | None:
    if data is None:
        return None
    mapping = _require_mapping(data, "'mlp'")
    _reject_unknown(mapping, _MLP_KEYS, "'mlp'")
    backend = mapping.get("backend")
    if backend is not None and backend not in available_backends():
        # Admission-time rejection (HTTP 400) instead of a soft-failed job
        # result after the request was accepted and scheduled.
        raise RequestError(
            f"unknown LP backend {backend!r}; available: "
            f"{available_backends()}"
        )
    try:
        return MLPOptions(**mapping)
    except (TypeError, ValueError) as err:
        raise RequestError(f"bad 'mlp': {err}") from err


def schedule_from_request(data: object) -> ClockSchedule:
    mapping = _require_mapping(data, "'schedule'")
    _reject_unknown(mapping, ("period", "phases"), "'schedule'")
    try:
        phases = [
            ClockPhase(str(p["name"]), float(p["start"]), float(p["width"]))
            for p in mapping["phases"]
        ]
        return ClockSchedule(float(mapping["period"]), phases)
    except (KeyError, TypeError, ValueError, ReproError) as err:
        raise RequestError(f"bad 'schedule': {err}") from err


def _sweep_grid(request: Mapping) -> tuple[float, ...]:
    if "grid" in request:
        try:
            grid = tuple(float(x) for x in request["grid"])
        except (TypeError, ValueError) as err:
            raise RequestError(f"bad 'grid': {err}") from err
    else:
        try:
            lo, hi = float(request["lo"]), float(request["hi"])
        except KeyError as err:
            raise RequestError(
                "a sweep needs either 'grid' or 'lo'/'hi'"
            ) from err
        points = int(request.get("points", 9))
        if points < 2:
            raise RequestError(f"'points' must be >= 2, got {points}")
        grid = tuple(
            lo + (hi - lo) * i / (points - 1) for i in range(points)
        )
    if len(grid) < 2:
        raise RequestError("a sweep grid needs at least two points")
    return grid


def job_from_request(request: object) -> Job:
    """Convert one JSON request object into a declarative engine job."""
    mapping = _require_mapping(request, "a job request")
    kind = mapping.get("kind", "minimize")
    if kind not in _JOB_KINDS:
        raise RequestError(
            f"unknown job kind {kind!r}; expected one of {_JOB_KINDS}"
        )
    _reject_unknown(mapping, _ALLOWED_KEYS[kind], f"{kind} request")
    graph, embedded_schedule = graph_from_request(mapping)
    options = options_from_request(mapping.get("options"))
    mlp = mlp_from_request(mapping.get("mlp"))
    label = str(mapping.get("label", ""))

    if kind == "minimize":
        override = mapping.get("arc_override")
        arc_override = None
        if override is not None:
            try:
                src, dst, delay = override
                arc_override = (str(src), str(dst), float(delay))
            except (TypeError, ValueError) as err:
                raise RequestError(
                    f"bad 'arc_override' (want [src, dst, delay]): {err}"
                ) from err
        return MinimizeJob(
            graph=graph, options=options, mlp=mlp,
            arc_override=arc_override, label=label,
        )
    if kind == "analyze":
        if "schedule" in mapping:
            schedule = schedule_from_request(mapping["schedule"])
        elif embedded_schedule is not None:
            schedule = embedded_schedule
        else:
            raise RequestError(
                "an analyze request needs a 'schedule' (or inline source "
                "with a fully specified clock block)"
            )
        return AnalyzeJob(
            graph=graph, schedule=schedule, options=options, label=label
        )
    if kind == "baseline":
        algorithm = mapping.get("algorithm")
        if not algorithm:
            raise RequestError("a baseline request needs an 'algorithm'")
        try:
            return BaselineJob(
                graph=graph, algorithm=str(algorithm), options=options,
                mlp=mlp, label=label,
            )
        except ReproError as err:
            raise RequestError(str(err)) from err
    # kind == "sweep" -- membership enforced above
    src, dst = mapping.get("src"), mapping.get("dst")
    if not src or not dst:
        raise RequestError("a sweep request needs 'src' and 'dst' latches")
    return SweepJob(
        graph=graph,
        src=str(src),
        dst=str(dst),
        grid=_sweep_grid(mapping),
        options=options,
        mlp=mlp,
        slope_tol=float(mapping.get("slope_tol", 1e-6)),
        label=label,
    )
