"""DEV4xx: sparsity sanitizer wiring.

The sparse LP substrate (``repro.lp.sparse``) keeps every dense
materialization observable: ``to_dense(site=...)`` routes through
``DENSE_STATS`` so a 10k-latch design that suddenly densifies a
10k x 20k constraint matrix shows up in metrics instead of in an OOM.
That only works if call sites cooperate:

* ``DEV401`` -- ``.to_dense()`` called without a ``site=`` keyword: the
  materialization is recorded against the generic receiver site and the
  stats can no longer attribute blow-ups to a caller;
* ``DEV402`` -- dense escape hatches (``.to_arrays()`` / ``.toarray()``
  calls, or reading the dense ``.a`` payload of a standard form)
  outside ``repro.lp``: dense math belongs behind the LP boundary, and
  call sites above it must either stay sparse or carry a waiver
  explaining why densifying is safe at that scale.

The repo currently has no DEV402 hits outside ``repro.lp`` -- this
family is the forward guard that keeps it that way.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devlint.astutil import attr_chain, call_chain, keyword_value
from repro.devlint.project import ModuleUnit
from repro.devlint.report import DevFinding, Severity
from repro.devlint.rules import make_finding, rule

#: Receiver names treated as LP standard forms for the ``.a`` check
#: (kept narrow: ``.a`` is a common attribute name elsewhere, e.g. the
#: difference-constraint edge bound in repro.cycle.graph).
_FORM_RECEIVERS = frozenset({"sf", "form", "standard_form", "std_form"})

_DENSE_ESCAPES = frozenset({"to_arrays", "toarray", "todense"})


def _inside_lp(unit: ModuleUnit) -> bool:
    return unit.module.startswith("repro.lp")


@rule(
    "DEV401",
    Severity.ERROR,
    "to_dense() call without a site= attribution keyword",
    fix_hint="pass site='<caller>' so DENSE_STATS can attribute the "
    "materialization (see repro.lp.sparse.note_dense_materialization)",
)
def _unattributed_densify(unit: ModuleUnit) -> Iterable[DevFinding]:
    for node in ast.walk(unit.tree):
        if not isinstance(node, ast.Call):
            continue
        chain = call_chain(node)
        if chain is None or chain[-1] != "to_dense" or len(chain) < 2:
            continue
        if keyword_value(node, "site") is not None:
            continue
        yield make_finding(
            "DEV401",
            unit,
            node,
            "to_dense() without site=: the dense materialization is "
            "recorded without caller attribution",
        )


@rule(
    "DEV402",
    Severity.ERROR,
    "dense materialization escape hatch used outside repro.lp",
    fix_hint="stay sparse above the LP boundary, route through "
    "to_dense(site=...), or carry a '# devlint: waiver[DEV402] <why>' "
    "explaining why densifying is safe at this scale",
)
def _dense_escape(unit: ModuleUnit) -> Iterable[DevFinding]:
    if _inside_lp(unit):
        return
    for node in ast.walk(unit.tree):
        if isinstance(node, ast.Call):
            chain = call_chain(node)
            if (
                chain is not None
                and chain[-1] in _DENSE_ESCAPES
                and len(chain) >= 2
            ):
                yield make_finding(
                    "DEV402",
                    unit,
                    node,
                    f"'.{chain[-1]}()' densifies outside the LP "
                    "boundary",
                )
        elif isinstance(node, ast.Attribute) and node.attr == "a":
            chain = attr_chain(node.value)
            if chain is not None and chain[-1] in _FORM_RECEIVERS:
                yield make_finding(
                    "DEV402",
                    unit,
                    node,
                    "reading the dense '.a' payload of a standard form "
                    "outside the LP boundary",
                )
