"""Backend registry: route LPs to a simplex, scipy, or the cycle solver.

All backends answer the same question and must produce identical optima;
they differ in speed and capabilities:

* ``"simplex"`` -- the from-scratch dense tableau solver (the paper's own
  choice);
* ``"revised"`` -- the revised simplex with an explicit basis inverse;
* ``"sparse"``  -- the sparse revised simplex (:mod:`repro.lp.sparse_simplex`):
  pivot-for-pivot the revised solver, but with CSC constraint storage and
  an LU + eta-file basis factorization -- O(nnz) memory instead of O(m^2),
  the backend that scales to 10k+ latches;
* ``"scipy"``   -- :func:`scipy.optimize.linprog` (HiGHS), registered when
  scipy is importable;
* ``"cycle"``   -- the graph-native parametric critical-cycle solver of
  :mod:`repro.cycle`: no tableau at all, but it needs the originating
  :class:`~repro.core.constraints.SMOProgram` as ``context`` and falls
  back to the revised simplex whenever it cannot certify its answer;
* ``"cycle+check"`` -- ``"cycle"`` plus an unconditional revised-simplex
  cross-check asserting agreement to 1e-9 (the CI trust anchor).

``solve(program, backend=..., context=...)`` is the single entry point.
A context is silently dropped for backends that cannot use it, so callers
can thread it unconditionally.

When the caller names no backend, one routing rule applies: a program
that comes with a ``context`` (the
:class:`~repro.core.constraints.SMOProgram` it was built from) is
answered by ``"cycle"`` (certified primal and duals, with the revised or
sparse simplex as fallback, also for a context of any other type); a
program without one goes to the dense ``"simplex"``, or to ``"sparse"`` above :data:`AUTO_SPARSE_ROWS`
rows.
"""

from __future__ import annotations

import importlib.util
import inspect
import time
from typing import Callable

from repro.errors import SolverError
from repro.lp.model import LinearProgram
from repro.lp.result import LPResult
from repro.obs import metrics, trace

#: Name of the backend used when the caller names none and supplies no
#: SMO context (with one, ``backend=None`` routes to ``"cycle"``).
DEFAULT_BACKEND = "simplex"

#: Context-free programs with more constraint rows than this are
#: auto-routed from the dense default to the sparse revised simplex when
#: the caller passes ``backend=None``: the dense tableau above this size
#: is both slow and a counted dense-materialization event (see
#: :mod:`repro.lp.sparse`).
AUTO_SPARSE_ROWS = 2000


def _deferred(module: str, name: str) -> Callable[[LinearProgram], LPResult]:
    """The solver ``module.name``, imported by the first call that uses it.

    A default run answers through the cycle engine and never loads a
    tableau solver.
    """

    def solver(program: LinearProgram) -> LPResult:
        return getattr(importlib.import_module(module), name)(program)

    return solver


def _solve_cycle(
    program: LinearProgram, context: object | None = None
) -> LPResult:
    # repro.cycle itself falls back through this module.
    from repro.cycle.solver import solve_cycle

    return solve_cycle(program, context=context)


def _solve_cycle_check(
    program: LinearProgram, context: object | None = None
) -> LPResult:
    from repro.cycle.solver import solve_cycle

    return solve_cycle(program, context=context, check=True)


#: name -> (solver, accepts_context)
_BACKENDS: dict[str, tuple[Callable[..., LPResult], bool]] = {
    "simplex": (_deferred("repro.lp.simplex", "solve_simplex"), False),
    "revised": (
        _deferred("repro.lp.revised_simplex", "solve_revised_simplex"), False
    ),
    "sparse": (
        _deferred("repro.lp.sparse_simplex", "solve_sparse_simplex"), False
    ),
    "cycle": (_solve_cycle, True),
    "cycle+check": (_solve_cycle_check, True),
}
# An availability check only: scipy.optimize loads on the first scipy solve.
if importlib.util.find_spec("scipy") is not None:
    _BACKENDS["scipy"] = (
        _deferred("repro.lp.scipy_backend", "solve_scipy"), False
    )


def available_backends() -> list[str]:
    """Names of all usable LP backends."""
    return sorted(_BACKENDS)


def supports_context(name: str | None = None) -> bool:
    """True when the named backend consumes the SMO ``context`` object."""
    entry = _BACKENDS.get(name or DEFAULT_BACKEND)
    return bool(entry and entry[1])


def canonical_backend(name: str | None) -> str:
    """The registry name that actually answers for ``name``.

    Strips decoration suffixes (``"cycle+check"`` -> ``"cycle"``), so
    cache keys and signatures built from the canonical name hit across
    checked and unchecked variants of the same backend.  Unknown names
    pass through unchanged -- validation stays with :func:`solve`.
    """
    full = name or DEFAULT_BACKEND
    base = full.split("+", 1)[0]
    return base if base in _BACKENDS else full


def register_backend(
    name: str, solver: Callable[..., LPResult]
) -> None:
    """Register a custom solver callable under ``name``.

    A solver whose signature accepts a ``context`` keyword is handed the
    caller's SMO program; any other callable is invoked as
    ``solver(program)``.
    """
    try:
        accepts_context = "context" in inspect.signature(solver).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins, C callables
        accepts_context = False
    _BACKENDS[name] = (solver, accepts_context)


def _default_backend(program: LinearProgram, context: object | None) -> str:
    """The backend that answers when the caller names none."""
    if context is not None:
        # The cycle backend falls back to a simplex on a foreign context.
        return "cycle"
    if len(program) > AUTO_SPARSE_ROWS:
        return "sparse"
    return DEFAULT_BACKEND


def solve(
    program: LinearProgram,
    backend: str | None = None,
    context: object | None = None,
) -> LPResult:
    """Solve a program with the named backend (default: see below).

    ``context`` optionally supplies the
    :class:`~repro.core.constraints.SMOProgram` the program was generated
    from; the graph-native ``"cycle"``/``"cycle+check"`` backends require
    it to recover event times and fall back to the LP without it.  It
    never changes the reported optimum.

    When no backend is named, a program with a ``context`` goes to
    ``"cycle"``, which certifies its answer or falls back to a simplex.
    Programs without one go to the dense ``"simplex"``, or to ``"sparse"``
    above :data:`AUTO_SPARSE_ROWS` rows, where the dense tableau is an
    O(m x n) allocation the sparse solver answers identically without.
    """
    name = backend or _default_backend(program, context)
    try:
        solver, accepts_context = _BACKENDS[name]
    except KeyError:
        raise SolverError(
            f"unknown LP backend {name!r}; available: {available_backends()}"
        ) from None
    with trace.span("lp_solve", backend=name) as span:
        start = time.perf_counter()
        if accepts_context:
            result = solver(program, context=context)
        else:
            result = solver(program)
        elapsed = time.perf_counter() - start
        if not result.solve_seconds:
            result.solve_seconds = elapsed
        span.set("status", result.status.name)
        span.set("pivots", result.iterations)
        cycle_info = result.extra.get("cycle")
        if isinstance(cycle_info, dict):
            span.set("cycle_used", bool(cycle_info.get("used")))
    if metrics.is_enabled():
        metrics.inc("lp_solves_total", backend=name, status=result.status.name)
        metrics.observe("lp_solve_seconds", elapsed, backend=name)
        metrics.observe(
            "lp_pivots",
            float(result.iterations),
            buckets=metrics.COUNT_BUCKETS,
            backend=name,
        )
    return result
