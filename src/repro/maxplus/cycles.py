"""Positive-cycle detection in max-plus dependency graphs.

A fixpoint of ``D = max(floor, max(D_src + w))`` exists if and only if
every cycle of the (non-frozen) dependency graph has total weight <= 0.
A positive cycle means signals around some latch loop get strictly later
every time around -- under the given clock schedule the circuit cannot
settle into a periodic steady state.
"""

from __future__ import annotations

from repro.maxplus.system import MaxPlusSystem


def _cycle_adjacency(system: MaxPlusSystem) -> dict[str, dict[str, float]]:
    """``{src: {dst: weight}}`` over the non-frozen nodes, in system order.

    Parallel dependencies keep the heaviest weight: it dominates in
    max-plus.
    """
    adj: dict[str, dict[str, float]] = {
        n: {} for n in system.nodes if n not in system.frozen
    }
    for arc in system.arcs:
        if arc.src in system.frozen or arc.dst in system.frozen:
            continue  # frozen nodes never propagate increases
        out = adj.setdefault(arc.src, {})
        adj.setdefault(arc.dst, {})
        weight = out.get(arc.dst)
        out[arc.dst] = arc.weight if weight is None else max(weight, arc.weight)
    return adj


def max_cycle_weight(system: MaxPlusSystem) -> float:
    """The maximum total weight over all simple cycles (-inf if acyclic).

    Enumerates ``networkx.simple_cycles``: exponential in the worst case.
    """
    import networkx as nx

    adj = _cycle_adjacency(system)
    g = nx.DiGraph()
    g.add_nodes_from(adj)
    g.add_edges_from((a, b) for a, out in adj.items() for b in out)
    best = float("-inf")
    for cycle in nx.simple_cycles(g):
        closed = cycle + [cycle[0]]
        weight = sum(adj[a][b] for a, b in zip(closed, closed[1:]))
        best = max(best, weight)
    return best


def find_positive_cycle(
    system: MaxPlusSystem, tol: float = 1e-9
) -> list[str] | None:
    """Return the node sequence of some positive-weight cycle, or None.

    Uses longest-path Bellman-Ford relaxation with predecessor tracing; a
    node still relaxing after |V| rounds lies on (or is reachable from) a
    positive cycle, which is then recovered by walking predecessors.
    """
    adj = _cycle_adjacency(system)
    nodes = list(adj)
    if not nodes:
        return None
    dist = {n: 0.0 for n in nodes}
    pred: dict[str, str | None] = {n: None for n in nodes}
    flagged: str | None = None
    for round_idx in range(len(nodes) + 1):
        changed = False
        for a, out in adj.items():
            for b, weight in out.items():
                cand = dist[a] + weight
                if cand > dist[b] + tol:
                    dist[b] = cand
                    pred[b] = a
                    changed = True
                    if round_idx == len(nodes):
                        flagged = b
        if not changed:
            return None
    if flagged is None:  # pragma: no cover - changed implies flagged on last round
        return None
    # Walk back |V| steps to guarantee we are inside the cycle, then trace it.
    node = flagged
    for _ in range(len(nodes)):
        node = pred[node]  # type: ignore[assignment]
    start = node
    cycle = [start]
    node = pred[start]
    while node != start:
        cycle.append(node)  # type: ignore[arg-type]
        node = pred[node]  # type: ignore[index]
    cycle.reverse()
    return cycle
