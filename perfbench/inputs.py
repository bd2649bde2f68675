"""Seeded benchmark inputs and their independent reference answers.

Generated designs come from :mod:`repro.designs.generators`; the seed
perturbs every arc delay (never a phase assignment, so loop compliance
holds) and the result is written as an ``.lcd`` file, which is all the
program sees.  Reference optima come from the paper where it publishes
them (example 1's closed form of Section V, GaAs 4.4 ns) and otherwise
from a HiGHS solve through ``scipy``.  References are computed during
set-up and are not timed.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass

#: Published optima: example 1 at Delta_41 = 80 ns (Fig. 6) and the GaAs
#: datapath (Section VI).
PUBLISHED_TC = {"example1": 110.0, "gaas": 4.4}

PAPER_DESIGNS = ("example1", "example2", "fig1", "gaas")

#: Relative spread of the seeded arc-delay perturbation.  Small enough
#: that every seed keeps the generator's critical structure (so the work
#: per design is comparable across seeds), large enough that every seed
#: gives different numbers and different answers.
DELAY_SPREAD = 0.02

_PATH = re.compile(r"^(path (\S+) -> (\S+) delay )(\S+?)(;| .*;)$", re.M)


def example1_tc(delta_41: float) -> float:
    """Example 1's optimal Tc as a function of Delta_41 (Section V, Fig. 7)."""
    return max(80.0, (140.0 + delta_41) / 2.0, 20.0 + delta_41)


def example1_nrip_tc(delta_41: float) -> float:
    """The NRIP baseline's Tc on example 1 (Fig. 7)."""
    return max(100.0, 40.0 + delta_41)


@dataclass
class Design:
    """One circuit the program is given, with its reference optimum."""

    name: str
    text: str
    latches: int
    tc: float
    path: str = ""

    def write(self, directory: str) -> str:
        self.path = os.path.join(directory, f"{self.name}.lcd")
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(self.text)
        return self.path

    def arcs(self) -> list[tuple[str, str, float]]:
        return [(m[2], m[3], float(m[4])) for m in _PATH.finditer(self.text)]


def set_arc_delay(text: str, src: str, dst: str, delay: float) -> str:
    """The ``.lcd`` text with one arc's delay replaced."""

    def swap(match: re.Match[str]) -> str:
        if (match[2], match[3]) != (src, dst):
            return match[0]
        return f"{match[1]}{delay!r}{match[5]}"

    return _PATH.sub(swap, text)


def with_clock(text: str, period: float) -> str:
    """The text with a concrete two-phase clock block of ``period``."""
    clock = (
        "clock {\n"
        f"  period {period!r};\n"
        f"  phase phi1 start 0.0 width {0.45 * period!r};\n"
        f"  phase phi2 start {0.5 * period!r} width {0.45 * period!r};\n"
        "}\n"
    )
    return re.sub(r"clock \{.*?\n\}\n", lambda _: clock, text, count=1, flags=re.S)


def scipy_tc(text: str, max_period: float | None = None) -> float:
    """Optimal Tc of a circuit by HiGHS (``inf`` when infeasible)."""
    from repro.core.constraints import ConstraintOptions, build_program
    from repro.lang.parser import parse_circuit
    from repro.lp.backends import solve

    graph = parse_circuit(text).to_graph()
    smo = build_program(graph, ConstraintOptions(max_period=max_period))
    result = solve(smo.program, backend="scipy")
    return float(result.objective) if result.ok else float("inf")


def paper_design(name: str) -> Design:
    """A shipped paper design; Tc published or solved by HiGHS."""
    with open(os.path.join("examples", f"{name}.lcd"), encoding="utf-8") as handle:
        text = handle.read()
    tc = PUBLISHED_TC.get(name)
    return Design(
        name, text, text.count("\nlatch "),
        tc if tc is not None else scipy_tc(text),
        path=os.path.join("examples", f"{name}.lcd"),
    )


def generated(
    rng: random.Random, family: str, a: int, b: int, name: str = ""
) -> Design:
    """A seeded ``pipeline(a, b)`` or ``banked_array(a, b)`` design."""
    from repro.designs.generators import banked_array, pipeline
    from repro.lang.writer import write_circuit

    graph = pipeline(a, b) if family == "pipeline" else banked_array(a, b)

    def perturb(match: re.Match[str]) -> str:
        delay = float(match[4]) * (1.0 + rng.uniform(-DELAY_SPREAD, DELAY_SPREAD))
        return f"{match[1]}{round(delay, 3)!r}{match[5]}"

    text = _PATH.sub(perturb, write_circuit(graph))
    name = name or f"{family}{a}x{b}"
    return Design(name, text, len(graph.synchronizers), scipy_tc(text))


def close(value: float, reference: float, rel: float = 1e-5) -> bool:
    """Agreement up to the CLI's six printed significant digits."""
    return abs(value - reference) <= rel * max(1.0, abs(reference))
