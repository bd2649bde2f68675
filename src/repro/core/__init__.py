"""The paper's primary contribution: SMO constraints and Algorithm MLP.

* :mod:`repro.core.constraints` -- generate the clock constraints C1-C4 and
  latch constraints L1/L2R/L3 for any circuit and clocking scheme
  (Section III), as a linear program with purely topological coefficients;
* :mod:`repro.core.mlp` -- Algorithm MLP: solve the LP relaxation P2, then
  slide departure times to a P1 fixpoint (Section IV, Theorem 1);
* :mod:`repro.core.analysis` -- the *analysis* problem: verify a circuit
  against a fixed clock schedule;
* :mod:`repro.core.critical` -- critical segments from LP slacks/duals;
* :mod:`repro.core.parametric` -- piecewise-linear Tc(delay) sweeps (Fig. 7);
* :mod:`repro.core.shortpath` -- hold-time (short-path) extension.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

# Static checkers see every export; at run time each binds on first access.
if TYPE_CHECKING:
    from repro.core.analysis import SyncTiming as SyncTiming
    from repro.core.analysis import TimingReport as TimingReport
    from repro.core.analysis import analyze as analyze
    from repro.core.constraints import TC as TC
    from repro.core.constraints import ConstraintOptions as ConstraintOptions
    from repro.core.constraints import SMOProgram as SMOProgram
    from repro.core.constraints import build_maxplus_system as build_maxplus_system
    from repro.core.constraints import build_program as build_program
    from repro.core.constraints import d_var as d_var
    from repro.core.constraints import s_var as s_var
    from repro.core.constraints import t_var as t_var
    from repro.core.critical import CriticalReport as CriticalReport
    from repro.core.critical import critical_segments as critical_segments
    from repro.core.minperiod import feasible_period as feasible_period
    from repro.core.minperiod import min_period_search as min_period_search
    from repro.core.mlp import MLPOptions as MLPOptions
    from repro.core.mlp import OptimalClockResult as OptimalClockResult
    from repro.core.mlp import minimize_cycle_time as minimize_cycle_time
    from repro.core.parametric import SweepPoint as SweepPoint
    from repro.core.parametric import SweepResult as SweepResult
    from repro.core.parametric import exact_sweep as exact_sweep
    from repro.core.parametric import exact_sweep_delay as exact_sweep_delay
    from repro.core.parametric import sweep_delay as sweep_delay
    from repro.core.shortpath import HoldReport as HoldReport
    from repro.core.shortpath import check_hold as check_hold
    from repro.core.shortpath import required_padding as required_padding
    from repro.core.signoff import SignoffReport as SignoffReport
    from repro.core.signoff import signoff as signoff
    from repro.core.theorem1 import P3Result as P3Result
    from repro.core.theorem1 import solve_p3 as solve_p3
    from repro.core.tuning import TuningResult as TuningResult
    from repro.core.tuning import maximize_slack as maximize_slack

#: Every export and the module that defines it, imported on first access.
_EXPORTS = {
    "ConstraintOptions": ".constraints",
    "SMOProgram": ".constraints",
    "build_program": ".constraints",
    "build_maxplus_system": ".constraints",
    "TC": ".constraints",
    "s_var": ".constraints",
    "t_var": ".constraints",
    "d_var": ".constraints",
    "SyncTiming": ".analysis",
    "TimingReport": ".analysis",
    "analyze": ".analysis",
    "MLPOptions": ".mlp",
    "OptimalClockResult": ".mlp",
    "minimize_cycle_time": ".mlp",
    "CriticalReport": ".critical",
    "critical_segments": ".critical",
    "SweepPoint": ".parametric",
    "SweepResult": ".parametric",
    "sweep_delay": ".parametric",
    "exact_sweep": ".parametric",
    "exact_sweep_delay": ".parametric",
    "HoldReport": ".shortpath",
    "check_hold": ".shortpath",
    "required_padding": ".shortpath",
    "feasible_period": ".minperiod",
    "min_period_search": ".minperiod",
    "TuningResult": ".tuning",
    "maximize_slack": ".tuning",
    "P3Result": ".theorem1",
    "solve_p3": ".theorem1",
    "SignoffReport": ".signoff",
    "signoff": ".signoff",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
