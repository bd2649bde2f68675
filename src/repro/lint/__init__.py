"""Static analysis over SMO constraint systems (see ``docs/LINT.md``).

Three passes, usable independently or together through :func:`run_lint`:

1. **Constraint-graph diagnostics** (:mod:`repro.lint.graphdiag`): on the
   parametric difference-constraint graph of the generated LP
   (:mod:`repro.cycle.graph`), one cycle-ratio search of
   :mod:`repro.cycle` yields a provable Tc lower bound (equal to the LP
   optimum when nothing is skipped) with its critical cycle, and any
   infeasibility as a negative-cycle certificate naming the offending
   C1-C4/L1-L3 rows -- no LP solve required.
2. **Rule engine** (:mod:`repro.lint.rules`): coded structural and
   schedule-dependent checks (``LINT1xx``/``LINT2xx``), absorbing the
   legacy :func:`repro.circuit.validate.check_structure` messages.
3. **Sanitizer** (:mod:`repro.lint.sanitize`): a-posteriori verification
   of a solved schedule against every P1 constraint with per-row slack.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

# Static checkers see every export; at run time each binds on first access.
if TYPE_CHECKING:
    from repro.cycle.graph import ConstraintGraph as ConstraintGraph
    from repro.cycle.graph import DiffEdge as DiffEdge
    from repro.cycle.graph import build_constraint_graph as build_constraint_graph
    from repro.cycle.graph import clear_graph_cache as clear_graph_cache
    from repro.cycle.graph import constraint_graph_for as constraint_graph_for
    from repro.cycle.graph import graph_cache_stats as graph_cache_stats
    from repro.cycle.graph import structure_fingerprint as structure_fingerprint
    from repro.lint.graphdiag import GraphDiagnostics as GraphDiagnostics
    from repro.lint.graphdiag import (
        InfeasibilityCertificate as InfeasibilityCertificate,
    )
    from repro.lint.graphdiag import TcBound as TcBound
    from repro.lint.graphdiag import diagnose as diagnose
    from repro.lint.report import LintFinding as LintFinding
    from repro.lint.report import LintReport as LintReport
    from repro.lint.report import Severity as Severity
    from repro.lint.rules import LintRule as LintRule
    from repro.lint.rules import get_rule as get_rule
    from repro.lint.rules import registered_rules as registered_rules
    from repro.lint.rules import run_lint as run_lint
    from repro.lint.rules import run_rules as run_rules
    from repro.lint.sanitize import ConstraintSlack as ConstraintSlack
    from repro.lint.sanitize import SanitizeReport as SanitizeReport
    from repro.lint.sanitize import sanitize_result as sanitize_result
    from repro.lint.sanitize import sanitize_solution as sanitize_solution
    from repro.lint.sanitize import solution_assignment as solution_assignment

#: Every export and the module that defines it, imported on first access.
_EXPORTS = {
    "ConstraintGraph": "repro.cycle.graph",
    "ConstraintSlack": ".sanitize",
    "DiffEdge": "repro.cycle.graph",
    "GraphDiagnostics": ".graphdiag",
    "InfeasibilityCertificate": ".graphdiag",
    "LintFinding": ".report",
    "LintReport": ".report",
    "LintRule": ".rules",
    "SanitizeReport": ".sanitize",
    "Severity": ".report",
    "TcBound": ".graphdiag",
    "build_constraint_graph": "repro.cycle.graph",
    "clear_graph_cache": "repro.cycle.graph",
    "constraint_graph_for": "repro.cycle.graph",
    "diagnose": ".graphdiag",
    "get_rule": ".rules",
    "graph_cache_stats": "repro.cycle.graph",
    "structure_fingerprint": "repro.cycle.graph",
    "registered_rules": ".rules",
    "run_lint": ".rules",
    "run_rules": ".rules",
    "sanitize_result": ".sanitize",
    "sanitize_solution": ".sanitize",
    "solution_assignment": ".sanitize",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
