"""Declarative job types and canonical content hashing for the batch engine.

A *job* is a self-contained description of one timing problem -- circuit,
clock information and solver options -- that can be shipped to a worker
process, executed, cached and replayed.  Two jobs that describe the same
problem must hash identically no matter how their circuits were built
(builder insertion order, arc declaration order), so the canonical key is
computed over a *sorted* plain-data signature of the inputs rather than
over Python object identity.

Floats are rendered with ``repr``, which emits the shortest decimal string
that round-trips the value exactly; keys are therefore stable across
processes and sessions while still distinguishing genuinely different
delay values.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.circuit.elements import FlipFlop
from repro.circuit.graph import TimingGraph
from repro.clocking.schedule import ClockSchedule
from repro.core.constraints import ConstraintOptions
from repro.core.mlp import MLPOptions
from repro.lp.backends import canonical_backend
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.lint.graphdiag import GraphDiagnostics

#: Bump when the signature layout changes so stale disk caches never match.
SIGNATURE_VERSION = 2


def _f(x: float) -> str:
    """Exact, canonical text for a float (repr round-trips binary floats)."""
    return repr(float(x))


def graph_signature(graph: TimingGraph) -> dict:
    """A plain-data signature of a :class:`TimingGraph`.

    Synchronizers and arcs are sorted by name so equivalent builder
    orderings produce identical signatures; the phase list keeps its order
    because phase ordering is semantically significant (constraint C2).
    """
    syncs = []
    for s in graph.synchronizers:
        entry = {
            "name": s.name,
            "kind": "ff" if isinstance(s, FlipFlop) else "latch",
            "phase": s.phase,
            "setup": _f(s.setup),
            "delay": _f(s.delay),
            "hold": _f(s.hold),
        }
        if isinstance(s, FlipFlop):
            entry["edge"] = s.edge.value
        syncs.append(entry)
    syncs.sort(key=lambda e: e["name"])
    arcs = sorted(
        (
            {
                "src": a.src,
                "dst": a.dst,
                "delay": _f(a.delay),
                "min_delay": _f(a.min_delay),
            }
            for a in graph.arcs
        ),
        key=lambda e: (e["src"], e["dst"]),
    )
    return {"phases": list(graph.phase_names), "syncs": syncs, "arcs": arcs}


def schedule_signature(schedule: ClockSchedule | None) -> dict | None:
    if schedule is None:
        return None
    return {
        "period": _f(schedule.period),
        "phases": [
            {"name": p.name, "start": _f(p.start), "width": _f(p.width)}
            for p in schedule.phases
        ],
    }


def _mapping_signature(mapping: Mapping[str, float] | None) -> list | None:
    if not mapping:
        return None
    return sorted([k, _f(v)] for k, v in mapping.items())


def options_signature(options: ConstraintOptions | None) -> dict | None:
    if options is None:
        return None
    skew = None
    if options.skew:
        skew = sorted(
            [phase, _f(b.early), _f(b.late)] for phase, b in options.skew.items()
        )
    return {
        "min_width": _f(options.min_width),
        "min_separation": _f(options.min_separation),
        "setup_margin": _f(options.setup_margin),
        "fixed_period": None
        if options.fixed_period is None
        else _f(options.fixed_period),
        "fixed_starts": _mapping_signature(options.fixed_starts),
        "fixed_widths": _mapping_signature(options.fixed_widths),
        "zero_departure_phases": list(options.zero_departure_phases),
        "max_period": None if options.max_period is None else _f(options.max_period),
        "skew": skew,
    }


def mlp_signature(mlp: MLPOptions | None) -> dict | None:
    """Cache-relevant MLP options.

    ``kernel`` and ``sanitize`` are deliberately excluded: the fixpoint
    kernel is a pure performance device and the sanitizer a pure
    verification device -- neither changes a reported optimum, so neither
    may split the cache.  For the same reason decorated backend spellings
    hash as their registry-canonical name (``"cycle+check"`` as plain
    ``"cycle"``): the LP cross-check and forced sanitize only ever
    *raise*, they never change what the job returns, so both spellings
    must share one cache entry.
    """
    if mlp is None:
        return None
    backend = None if mlp.backend is None else canonical_backend(mlp.backend)
    return {
        "backend": backend,
        "iteration": mlp.iteration,
        "verify": mlp.verify,
        "compact": mlp.compact,
        "tol": _f(mlp.tol),
    }


def _digest(signature: dict) -> str:
    blob = json.dumps(signature, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Job types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MinimizeJob:
    """Run Algorithm MLP on one circuit (optionally with one arc overridden).

    ``arc_override`` carries a ``(src, dst, delay)`` triple applied with
    :meth:`TimingGraph.with_arc_delay` before solving; parametric sweeps use
    it so that every grid point of the same base circuit shares one graph
    object instead of materializing a modified copy per job.

    ``kernel`` is a *hint*, deliberately excluded from :meth:`signature`:
    it overrides the fixpoint execution engine (``"dict"``/``"array"``/
    ``"auto"``, see :attr:`repro.core.mlp.MLPOptions.kernel`), a pure
    performance device -- every kernel the engine selects produces
    identical results, so two jobs that differ only in it must share one
    cache entry.

    ``preflight`` is another such hint: the graph diagnosis of
    :meth:`solved_graph` under ``options`` that an admission gate already
    ran (``repro serve``), with the program it built.  The engine then
    reuses both instead of running its own pre-flight.  Requests cannot
    set it.
    """

    graph: TimingGraph
    options: ConstraintOptions | None = None
    mlp: MLPOptions | None = None
    arc_override: tuple[str, str, float] | None = None
    label: str = ""
    # Performance hints -- not part of the cache signature (see docstring).
    kernel: str | None = None
    preflight: GraphDiagnostics | None = field(
        default=None, repr=False, compare=False
    )

    kind = "minimize"

    def solved_graph(self) -> TimingGraph:
        """The circuit the engine solves: ``graph`` with ``arc_override`` applied."""
        if self.arc_override is None:
            return self.graph
        src, dst, delay = self.arc_override
        return self.graph.with_arc_delay(src, dst, delay)

    def signature(self) -> dict:
        return {
            "v": SIGNATURE_VERSION,
            "kind": self.kind,
            "graph": graph_signature(self.graph),
            "options": options_signature(self.options),
            "mlp": mlp_signature(self.mlp),
            "arc_override": None
            if self.arc_override is None
            else [
                self.arc_override[0],
                self.arc_override[1],
                _f(self.arc_override[2]),
            ],
        }


@dataclass(frozen=True)
class AnalyzeJob:
    """Verify one circuit against a fixed clock schedule."""

    graph: TimingGraph
    schedule: ClockSchedule
    options: ConstraintOptions | None = None
    label: str = ""

    kind = "analyze"

    def signature(self) -> dict:
        return {
            "v": SIGNATURE_VERSION,
            "kind": self.kind,
            "graph": graph_signature(self.graph),
            "schedule": schedule_signature(self.schedule),
            "options": options_signature(self.options),
        }


#: Baseline algorithms runnable as jobs, by registry name.
BASELINE_ALGORITHMS = (
    "mlp",
    "nrip",
    "borrowing-1",
    "borrowing",
    "binary-search",
    "edge-triggered",
)


@dataclass(frozen=True)
class BaselineJob:
    """Run one baseline algorithm (see :data:`BASELINE_ALGORITHMS`)."""

    graph: TimingGraph
    algorithm: str
    options: ConstraintOptions | None = None
    mlp: MLPOptions | None = None
    label: str = ""

    kind = "baseline"

    def __post_init__(self) -> None:
        if self.algorithm not in BASELINE_ALGORITHMS:
            raise ReproError(
                f"unknown baseline algorithm {self.algorithm!r}; "
                f"choose from {BASELINE_ALGORITHMS}"
            )

    def signature(self) -> dict:
        return {
            "v": SIGNATURE_VERSION,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "graph": graph_signature(self.graph),
            "options": options_signature(self.options),
            "mlp": mlp_signature(self.mlp),
        }


@dataclass(frozen=True)
class SweepJob:
    """A parametric Tc(delay) sweep over a grid, one arc delay varied.

    Executed by :meth:`repro.engine.runner.Engine.map_sweep`, which expands
    the grid into :class:`MinimizeJob` instances (deduplicated through the
    cache) rather than running monolithically inside one worker.
    """

    graph: TimingGraph
    src: str
    dst: str
    grid: tuple[float, ...]
    options: ConstraintOptions | None = None
    mlp: MLPOptions | None = None
    slope_tol: float = 1e-6
    label: str = ""

    kind = "sweep"

    def signature(self) -> dict:
        return {
            "v": SIGNATURE_VERSION,
            "kind": self.kind,
            "graph": graph_signature(self.graph),
            "src": self.src,
            "dst": self.dst,
            "grid": [_f(x) for x in self.grid],
            "options": options_signature(self.options),
            "mlp": mlp_signature(self.mlp),
            "slope_tol": _f(self.slope_tol),
        }


@dataclass(frozen=True)
class FaultJob:
    """A fault-injection job for exercising the pool's failure handling.

    ``mode`` selects the behavior: ``"ok"`` returns ``value``; ``"error"``
    raises inside the worker (a *soft* failure -- the worker survives);
    ``"crash"`` kills the worker process outright; ``"hang"`` sleeps for
    ``seconds`` (long enough to trip a per-job timeout); ``"siginfo"``
    reports the executing process's SIGINT/SIGTERM dispositions (used to
    verify worker signal setup from inside the pool).  When
    ``crash_once_path`` is set, crash/hang modes succeed on any attempt
    after the file exists -- the first attempt creates it and fails -- which
    is how the retry tests produce a deterministic crash-then-recover run.
    """

    mode: str = "ok"
    value: float = 0.0
    seconds: float = 0.0
    crash_once_path: str | None = None
    label: str = ""

    kind = "fault"

    def signature(self) -> dict:
        return {
            "v": SIGNATURE_VERSION,
            "kind": self.kind,
            "mode": self.mode,
            "value": _f(self.value),
            "seconds": _f(self.seconds),
            "crash_once_path": self.crash_once_path,
        }


Job = MinimizeJob | AnalyzeJob | BaselineJob | SweepJob | FaultJob


def job_key(job: Job) -> str:
    """The canonical content hash of a job (sha256 over its signature)."""
    return _digest(job.signature())


# ----------------------------------------------------------------------
# Job results
# ----------------------------------------------------------------------
@dataclass
class JobResult:
    """Outcome of executing one job: headline value, payload and metrics.

    The payload is plain JSON-serializable data (never live model objects),
    so results can round-trip through the on-disk cache and across process
    boundaries cheaply.  ``value`` is the job's headline scalar -- the
    optimal period for minimize/baseline jobs, the worst slack for analyze
    jobs -- and ``metrics`` carries the per-stage instrumentation collected
    by :mod:`repro.engine.metrics`.
    """

    key: str
    kind: str
    ok: bool
    value: float | None = None
    payload: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    error: str | None = None
    label: str = ""
    attempts: int = 1
    cached: bool = False
    #: Serialized span trees recorded while executing this job in a pool
    #: worker (see :mod:`repro.obs.trace`).  Transport-only: deliberately
    #: excluded from :meth:`to_dict` so cached/duplicated results never
    #: replay another run's spans.
    spans: list = field(default_factory=list)
    #: Metrics-registry snapshot drained by the pool worker that executed
    #: this job (see :mod:`repro.obs.metrics`).  Transport-only like
    #: ``spans``: excluded from :meth:`to_dict` so cached/duplicated
    #: results never double-merge another run's counts -- which also makes
    #: crash-retry merges exactly-once (a crashed attempt never ships).
    obs_metrics: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "ok": self.ok,
            "value": self.value,
            "payload": self.payload,
            "metrics": self.metrics,
            "error": self.error,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "JobResult":
        return cls(
            key=data["key"],
            kind=data["kind"],
            ok=data["ok"],
            value=data["value"],
            payload=dict(data.get("payload") or {}),
            metrics=dict(data.get("metrics") or {}),
            error=data.get("error"),
            label=data.get("label", ""),
        )


def jobs_from_grid(
    graph: TimingGraph,
    src: str,
    dst: str,
    values: Sequence[float],
    options: ConstraintOptions | None = None,
    mlp: MLPOptions | None = None,
) -> list[MinimizeJob]:
    """One :class:`MinimizeJob` per grid value of the ``src -> dst`` delay."""
    return [
        MinimizeJob(
            graph=graph,
            options=options,
            mlp=mlp,
            arc_override=(src, dst, float(x)),
            label=f"{src}->{dst}={x:g}",
        )
        for x in values
    ]
