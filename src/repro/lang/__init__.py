"""A small circuit-description language and its parser.

The paper's initial MLP implementation "incorporates a simple parser"
(Section V); this package provides the equivalent: a compact text format
(``.lcd`` -- latch-controlled circuit description) for clocks,
synchronizers and combinational delay arcs, with a lexer, a
recursive-descent parser producing :class:`repro.circuit.TimingGraph`
objects, and a writer that round-trips graphs back to text.

Example::

    # Example 1 of the paper (Fig. 5)
    clock { phase phi1; phase phi2; }
    latch L1 phase phi1 setup 10 delay 10;
    latch L2 phase phi2 setup 10 delay 10;
    path L1 -> L2 delay 20 label "La";
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

# Static checkers see every export; at run time each binds on first access.
if TYPE_CHECKING:
    from repro.lang.ast import CircuitDecl as CircuitDecl
    from repro.lang.ast import ClockDecl as ClockDecl
    from repro.lang.ast import PathDecl as PathDecl
    from repro.lang.ast import PhaseDecl as PhaseDecl
    from repro.lang.ast import SyncDecl as SyncDecl
    from repro.lang.lexer import Token as Token
    from repro.lang.lexer import TokenKind as TokenKind
    from repro.lang.lexer import tokenize as tokenize
    from repro.lang.parser import parse_circuit as parse_circuit
    from repro.lang.parser import parse_file as parse_file
    from repro.lang.writer import write_circuit as write_circuit

#: Every export and the module that defines it, imported on first access.
_EXPORTS = {
    "Token": ".lexer",
    "TokenKind": ".lexer",
    "tokenize": ".lexer",
    "CircuitDecl": ".ast",
    "ClockDecl": ".ast",
    "PhaseDecl": ".ast",
    "SyncDecl": ".ast",
    "PathDecl": ".ast",
    "parse_circuit": ".parser",
    "parse_file": ".parser",
    "write_circuit": ".writer",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
