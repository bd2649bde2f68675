"""Graph-native minimum-Tc solver (see ``docs/CYCLE.md``).

The minimum cycle time of the paper's MLP is determined by a critical
cycle of the parametric difference-constraint graph of the SMO program:
with edge weights ``a + b*Tc`` and every ``b >= 0``, the system is
feasible at period ``t`` iff no cycle is negative, so the optimum is
``max_C -A(C)/B(C)`` over cycles ``C``.  This package computes that
optimum -- and a feasible schedule witnessing it -- directly on CSR
adjacency arrays, without ever building a simplex tableau:

* :mod:`repro.cycle.graph` lowers an SMO program to the graph, by an
  event-time substitution whose skeleton is cached by structure;
* :mod:`repro.cycle.compiled` lowers the constraint graph to flat numpy
  arrays (the layout of :mod:`repro.maxplus.compiled`), cached by the
  structural fingerprint so sweeps and re-cost copies only re-fill the
  ``a`` vector;
* :mod:`repro.cycle.solver` runs a Lawler-style parametric search --
  Howard-flavoured cycle-ratio jumps with a binary-search bracket as a
  guard -- over a vectorized Bellman-Ford oracle, recovers a schedule
  from the shortest-path potentials at the optimum, and *certifies* the
  result against every original LP row, falling back to the LP when the
  graph relaxation under-constrains the program.  With the period
  pinned, it minimizes a linear objective instead, as a min-cost flow
  (the compact tie-break pass of Algorithm MLP).

It is wired in as the ``"cycle"`` LP backend (and ``"cycle+check"``, the
self-verifying variant) in :mod:`repro.lp.backends`, and it is the only
oracle behind the pre-solve Tc bound and infeasibility certificates of
the lint subsystem.
"""

from repro.cycle.compiled import (
    CompiledCycleGraph,
    clear_cycle_cache,
    compile_cycle_graph,
    cycle_cache_stats,
)
from repro.cycle.solver import (
    CyclePeriod,
    minimum_feasible_period,
    solve_cycle,
)

__all__ = [
    "CompiledCycleGraph",
    "CyclePeriod",
    "clear_cycle_cache",
    "compile_cycle_graph",
    "cycle_cache_stats",
    "minimum_feasible_period",
    "solve_cycle",
]
