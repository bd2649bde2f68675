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

from repro.cycle.graph import (
    ConstraintGraph,
    DiffEdge,
    build_constraint_graph,
    clear_graph_cache,
    constraint_graph_for,
    graph_cache_stats,
    structure_fingerprint,
)
from repro.lint.graphdiag import (
    GraphDiagnostics,
    InfeasibilityCertificate,
    TcBound,
    diagnose,
)
from repro.lint.report import LintFinding, LintReport, Severity
from repro.lint.rules import LintRule, get_rule, registered_rules, run_lint, run_rules
from repro.lint.sanitize import (
    ConstraintSlack,
    SanitizeReport,
    sanitize_result,
    sanitize_solution,
    solution_assignment,
)

__all__ = [
    "ConstraintGraph",
    "ConstraintSlack",
    "DiffEdge",
    "GraphDiagnostics",
    "InfeasibilityCertificate",
    "LintFinding",
    "LintReport",
    "LintRule",
    "SanitizeReport",
    "Severity",
    "TcBound",
    "build_constraint_graph",
    "clear_graph_cache",
    "constraint_graph_for",
    "diagnose",
    "get_rule",
    "graph_cache_stats",
    "structure_fingerprint",
    "registered_rules",
    "run_lint",
    "run_rules",
    "sanitize_result",
    "sanitize_solution",
    "solution_assignment",
]
