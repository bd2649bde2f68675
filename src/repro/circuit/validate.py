"""Structural validation of circuits against the paper's preconditions."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from repro.circuit.graph import TimingGraph
from repro.clocking.schedule import ClockSchedule
from repro.clocking.waveform import simultaneous_and_is_zero
from repro.errors import PhaseOverlapError


@dataclass
class StructureReport:
    """Outcome of :func:`check_structure`."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_on_error(self) -> None:
        if self.errors:
            raise PhaseOverlapError("; ".join(self.errors))


def check_loop_phases(
    graph: TimingGraph, schedule: ClockSchedule | None = None
) -> list[str]:
    """Check the feedback-loop phase requirement of Section III.

    The paper requires the logical AND of the phases controlling each
    feedback loop to be identically zero.  Two checks are performed:

    * **Structural** (always): a loop consisting entirely of level-sensitive
      latches on a *single* phase can never satisfy the requirement -- while
      that phase is active the whole loop is transparent and oscillates.
      Loops containing a flip-flop are exempt, since a flip-flop is never
      transparent.
    * **Against a schedule** (when one is given): the phases of each
      all-latch loop must never be simultaneously active under the concrete
      schedule.

    Returns a list of human-readable violation messages.
    """
    if _no_loop_flagged(graph, schedule):
        return []
    problems: list[str] = []
    for loop in graph.feedback_loops():
        if any(not graph[name].is_latch for name in loop):
            continue  # a flip-flop breaks the transparency chain
        phases = graph.phases_of(loop)
        loop_desc = " -> ".join(loop + [loop[0]])
        if len(phases) == 1:
            (only,) = phases
            problems.append(
                f"latch loop {loop_desc} is controlled by the single phase "
                f"{only!r}; the loop is transparent whenever {only!r} is active"
            )
            continue
        if schedule is not None and not simultaneous_and_is_zero(schedule, phases):
            problems.append(
                f"latch loop {loop_desc}: phases {sorted(phases)} are "
                f"simultaneously active under the given schedule"
            )
    return problems


#: Above this many phases the subset test of :func:`_no_loop_flagged`
#: (2^k subgraphs) is skipped in favour of plain loop enumeration.
_MAX_SUBSET_PHASES = 8


def _flagged(phases: frozenset[str], schedule: ClockSchedule | None) -> bool:
    """Whether :func:`check_loop_phases` reports a latch loop on ``phases``."""
    if len(phases) == 1:
        return True
    return schedule is not None and not simultaneous_and_is_zero(schedule, phases)


def _no_loop_flagged(graph: TimingGraph, schedule: ClockSchedule | None) -> bool:
    """True when provably no latch loop violates the phase requirement.

    A flagged loop whose phase set is ``S`` lies in the all-latch subgraph
    induced by the latches on phases ``S``.  So if that subgraph is
    acyclic for every flagged ``S``, nothing is flagged -- without
    enumerating loops, whose count can grow exponentially.  O(2^k (l + m)).
    A False return is inconclusive: the caller enumerates.
    """
    latches = graph.latches
    phases = sorted({sync.phase for sync in latches})
    if len(phases) > _MAX_SUBSET_PHASES:
        return False
    if schedule is not None and (
        schedule.period <= 0 or not set(phases) <= set(schedule.names)
    ):
        return False  # let the enumeration raise or report exactly as before
    phase_of = {sync.name: sync.phase for sync in latches}
    succ = {
        name: [a.dst for a in graph.fanout(name) if a.dst in phase_of]
        for name in phase_of
    }
    for size in range(1, len(phases) + 1):
        for subset in combinations(phases, size):
            chosen = frozenset(subset)
            if not _flagged(chosen, schedule):
                continue
            members = {name for name, phase in phase_of.items() if phase in chosen}
            if _has_cycle(members, succ):
                return False
    return True


def _has_cycle(members: set[str], succ: dict[str, list[str]]) -> bool:
    """Kahn's algorithm on the subgraph induced by ``members``.

    A self-loop counts as a cycle.
    """
    indegree = dict.fromkeys(members, 0)
    for node in members:
        for dst in succ[node]:
            if dst in members:
                indegree[dst] += 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    removed = 0
    while ready:
        node = ready.pop()
        removed += 1
        for dst in succ[node]:
            if dst in members:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
    return removed < len(members)


#: Registry codes backing :func:`check_structure`, in legacy report order.
_LEGACY_ERROR_CODES = ("LINT101", "LINT103")
_LEGACY_WARNING_CODES = ("LINT111", "LINT112")


def check_structure(
    graph: TimingGraph, schedule: ClockSchedule | None = None
) -> StructureReport:
    """Run all structural checks; returns a :class:`StructureReport`.

    The checks are implemented as registered rules of
    :mod:`repro.lint.rules` (codes LINT101/103 for errors, LINT111/112 for
    warnings); this function runs exactly those and re-packages their
    findings with the historical message strings.

    Errors (violations of the paper's stated assumptions):

    * a level-sensitive latch loop on a single phase (or, given a schedule,
      on simultaneously-active phases);
    * a latch whose propagation delay ``Delta_DQ`` is smaller than its setup
      time ``Delta_DC`` (the paper assumes ``Delta_DQ >= Delta_DC``).

    Warnings (legal but often unintended):

    * synchronizers with no fanin and no fanout;
    * clock phases that control no synchronizer.
    """
    # Local import: repro.lint.rules imports check_loop_phases from here.
    from repro.lint.rules import run_rules

    report = StructureReport()
    findings = run_rules(
        graph,
        schedule,
        codes=_LEGACY_ERROR_CODES + _LEGACY_WARNING_CODES,
    )
    for finding in findings:
        if finding.code in _LEGACY_ERROR_CODES:
            report.errors.append(finding.message)
        else:
            report.warnings.append(finding.message)
    return report
