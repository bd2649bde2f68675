"""DEV2xx: nondeterminism inside job-signature functions.

``repro.engine.jobspec`` derives content-addressed cache keys by
sha256-hashing canonical JSON built in the ``*_signature`` helpers.
Anything that makes two runs of the *same* job produce different bytes
silently poisons the cache: repeated jobs stop hitting it, the serve
store accumulates duplicate rows, and cross-machine result sharing
breaks -- all without a single failing assertion.  The classic offenders
are exactly the ones these rules pattern-match:

* ``DEV201`` -- ``hash()``: salted per-process by ``PYTHONHASHSEED``;
* ``DEV202`` -- ``id()``: an address, different every run;
* ``DEV203`` -- ``str()`` / f-string formatting of values: ``str`` is
  not a canonical float encoding (``repr(float(x))`` is -- see ``_f``);
* ``DEV204`` -- iterating a dict or set without ``sorted(...)``:
  insertion / hash order leaks into the signature;
* ``DEV205`` -- wall-clock or entropy reads (``time``, ``datetime.now``,
  ``random``, ``uuid``, ``os.urandom``): different every call.

Scope: only functions that *are* signature builders -- named
``signature`` / ``*_signature``, or ``job_key`` / ``_digest`` (plus the
float canonicalizer ``_f`` in ``jobspec`` modules).  Ordinary code may
use ``hash()`` and clocks freely; these rules never look at it.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.devlint.astutil import (
    FunctionInfo,
    call_chain,
    function_table,
    has_ancestor_call,
    parent_map,
)
from repro.devlint.project import ModuleUnit
from repro.devlint.report import DevFinding, Severity
from repro.devlint.rules import make_finding, rule

#: Function names always treated as signature builders.
_SIGNATURE_NAMES = frozenset({"signature", "job_key", "_digest"})

#: Mapping/set view methods whose iteration order is not canonical.
_UNORDERED_VIEWS = frozenset({"items", "keys", "values"})

#: Call chains that read wall clocks or entropy sources.
_CLOCK_PREFIXES = ("time", "datetime", "random", "uuid", "secrets")

_ORDER_FIXERS = frozenset({"sorted", "min", "max", "len", "sum"})


def signature_functions(unit: ModuleUnit) -> list[FunctionInfo]:
    """The functions in ``unit`` that build job signatures."""
    out: list[FunctionInfo] = []
    jobspec_module = unit.module.rpartition(".")[2] == "jobspec"
    for info in function_table(unit.tree):
        if (
            info.name in _SIGNATURE_NAMES
            or info.name.endswith("_signature")
            or (jobspec_module and info.name == "_f")
        ):
            out.append(info)
    return out


def _body_nodes(info: FunctionInfo) -> Iterator[ast.AST]:
    # Nested defs are part of the signature computation, so descend.
    for stmt in info.node.body:
        yield from ast.walk(stmt)


def _is_clock_read(chain: tuple[str, ...]) -> bool:
    if chain[0] in _CLOCK_PREFIXES and len(chain) > 1:
        return True
    if chain == ("os", "urandom"):
        return True
    # "from time import monotonic"-style bare reads.
    return chain[-1] in (
        "time",
        "monotonic",
        "perf_counter",
        "utcnow",
        "now",
        "urandom",
        "uuid4",
        "uuid1",
    ) and len(chain) <= 2


def _sig_findings(
    unit: ModuleUnit, code: str
) -> Iterable[DevFinding]:
    parents = parent_map(unit.tree)
    for info in signature_functions(unit):
        for node in _body_nodes(info):
            if not isinstance(node, ast.Call):
                continue
            chain = call_chain(node)
            if chain is None:
                continue
            if code == "DEV201" and chain == ("hash",):
                yield make_finding(
                    code,
                    unit,
                    node,
                    "hash() in a signature function is salted by "
                    "PYTHONHASHSEED and differs across interpreter runs",
                    scope=info.qualname,
                )
            elif code == "DEV202" and chain == ("id",):
                yield make_finding(
                    code,
                    unit,
                    node,
                    "id() in a signature function is a memory address "
                    "and differs every run",
                    scope=info.qualname,
                )
            elif code == "DEV204" and chain[-1] in _UNORDERED_VIEWS:
                if not has_ancestor_call(
                    node, parents, _ORDER_FIXERS, stop=info.node
                ):
                    yield make_finding(
                        code,
                        unit,
                        node,
                        f"'.{chain[-1]}()' iterated without sorted(): "
                        "dict/set order leaks into the signature",
                        scope=info.qualname,
                    )
            elif code == "DEV205" and _is_clock_read(chain):
                yield make_finding(
                    code,
                    unit,
                    node,
                    f"'{'.'.join(chain)}()' reads a clock or entropy "
                    "source inside a signature function",
                    scope=info.qualname,
                )


@rule(
    "DEV201",
    Severity.ERROR,
    "builtin hash() inside a job-signature function",
    fix_hint="hash content, not objects: build canonical JSON and "
    "digest it with hashlib (see jobspec._digest)",
)
def _sig_hash(unit: ModuleUnit) -> Iterable[DevFinding]:
    return _sig_findings(unit, "DEV201")


@rule(
    "DEV202",
    Severity.ERROR,
    "builtin id() inside a job-signature function",
    fix_hint="identify objects by their content signature, never by "
    "address",
)
def _sig_id(unit: ModuleUnit) -> Iterable[DevFinding]:
    return _sig_findings(unit, "DEV202")


@rule(
    "DEV203",
    Severity.WARNING,
    "str()/f-string value formatting inside a job-signature function",
    fix_hint="floats must go through repr(float(x)) (jobspec._f); "
    "str() is not a canonical encoding",
)
def _sig_str(unit: ModuleUnit) -> Iterable[DevFinding]:
    for info in signature_functions(unit):
        if info.name == "_f":
            # The canonicalizer itself is the sanctioned formatter.
            continue
        for node in _body_nodes(info):
            if isinstance(node, ast.Call) and call_chain(node) == ("str",):
                yield make_finding(
                    "DEV203",
                    unit,
                    node,
                    "str() formatting inside a signature function; "
                    "str(float) is locale-stable but not versioned as "
                    "canonical -- route floats through _f()",
                    scope=info.qualname,
                )
            elif isinstance(node, ast.FormattedValue):
                yield make_finding(
                    "DEV203",
                    unit,
                    node,
                    "f-string interpolation inside a signature "
                    "function; format specs are not a canonical "
                    "encoding -- build JSON instead",
                    scope=info.qualname,
                )


@rule(
    "DEV204",
    Severity.ERROR,
    "unsorted dict/set iteration inside a job-signature function",
    fix_hint="wrap the view in sorted(...): 'sorted(mapping.items())'",
)
def _sig_unsorted(unit: ModuleUnit) -> Iterable[DevFinding]:
    return _sig_findings(unit, "DEV204")


@rule(
    "DEV205",
    Severity.ERROR,
    "clock or entropy read inside a job-signature function",
    fix_hint="signatures must be pure functions of the job content; "
    "timestamps belong in run metadata, not cache keys",
)
def _sig_clock(unit: ModuleUnit) -> Iterable[DevFinding]:
    return _sig_findings(unit, "DEV205")
