"""The in-repo min-cost flow and the shared positive-cycle search.

Both replace networkx on the default paths, so both are checked here
against networkx itself:

* **Flow** -- on seeded random uncapacitated transshipment instances
  (parallel edges, self-loops, zero and 2**52-scale costs),
  :func:`repro.cycle.solver._min_cost_flow` meets every supply exactly
  and reaches the optimal cost of ``networkx.network_simplex``; where
  networkx finds no feasible flow it raises :class:`FlowInfeasibleError`,
  and inside the compact pass that error becomes a fallback reason.
* **Positive cycles** -- :func:`repro.maxplus.compiled.find_positive_cycle`
  (the cycle engine's vectorized Bellman-Ford on negated weights) finds
  a cycle exactly when the networkx-graph implementation it replaced
  does, on seeded max-plus systems, and every cycle it returns is a real
  positive-weight cycle over unfrozen nodes.
"""

import random

import networkx as nx
import numpy as np
import pytest

import repro.cycle.solver as solver
from repro.core.constraints import ConstraintOptions
from repro.core.mlp import build_compact_program, minimize_cycle_time
from repro.cycle.compiled import _structure_from_arrays
from repro.cycle.solver import FlowInfeasibleError, _min_cost_flow
from repro.designs import example1, example2, fig1_circuit, gaas_datapath
from repro.lp.backends import solve
from repro.maxplus.compiled import find_positive_cycle
from repro.maxplus.system import MaxPlusSystem, WeightedArc


def _structure(n, tail, head):
    nodes = tuple(f"v{i}" for i in range(n))
    return _structure_from_arrays(
        nodes,
        {name: i for i, name in enumerate(nodes)},
        np.asarray(tail, dtype=np.int64),
        np.asarray(head, dtype=np.int64),
        np.zeros(len(tail)),
        tuple(f"e{k}" for k in range(len(tail))),
        ("?",) * len(tail),
    )


def _network_simplex_cost(st, cost, supply):
    """Optimal cost by ``networkx.network_simplex``, or None if infeasible.

    Keeps one (the cheapest) edge per node pair and drops self-loops, as
    the networkx route of the compact pass did.
    """
    net = nx.DiGraph()
    for v, s in enumerate(supply.tolist()):
        net.add_node(v, demand=-round(s))
    for u, v, c in zip(st.tail.tolist(), st.head.tolist(), cost.tolist()):
        if u != v and (not net.has_edge(u, v) or c < net[u][v]["weight"]):
            net.add_edge(u, v, weight=c)
    try:
        value, _ = nx.network_simplex(net)
    except nx.NetworkXUnfeasible:
        return None
    return value


def _instance(seed):
    """A seeded transshipment instance: graph, costs >= 0, balanced supplies."""
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    m = rng.randint(1, 4 * n)
    tail = [rng.randrange(n) for _ in range(m)]
    head = [rng.randrange(n) for _ in range(m)]
    scale = rng.choice([10, 1000, 2**52])
    cost = [rng.choice([0, rng.randint(0, scale)]) for _ in range(m)]
    supply = [0] * n
    for _ in range(rng.randint(1, 3 * n)):
        src, dst = rng.randrange(n), rng.randrange(n)
        amount = rng.randint(1, 5)
        supply[src] += amount
        supply[dst] -= amount
    st = _structure(n, tail, head)
    return st, np.array(cost, dtype=np.int64), np.array(supply, dtype=float)


class TestFlowAgainstNetworkSimplex:
    @pytest.mark.parametrize("seed", range(200))
    def test_optimal_cost_and_supplies(self, seed):
        st, cost, supply = _instance(seed)
        reference = _network_simplex_cost(st, cost, supply)
        if reference is None:
            with pytest.raises(FlowInfeasibleError, match="no residual path"):
                _min_cost_flow(st, cost, supply)
            return
        flow, rounds = _min_cost_flow(st, cost, supply)
        assert (flow >= 0).all()
        assert rounds >= (1 if supply.any() else 0)
        n = st.n_nodes
        net_out = np.bincount(st.tail, flow, n) - np.bincount(st.head, flow, n)
        assert np.array_equal(net_out, supply)
        total = sum(int(c) * int(f) for c, f in zip(cost, flow))
        assert total == reference

    def test_some_instances_are_infeasible(self):
        # The sweep above must exercise the exception path, not only optima.
        infeasible = sum(
            _network_simplex_cost(*_instance(seed)) is None for seed in range(200)
        )
        assert 10 <= infeasible <= 190

    def test_path_sums_beyond_int64_stay_exact(self):
        # A 40-edge chain of 2**60 costs: the path cost is 40 * 2**60 > 2**63.
        n = 41
        st = _structure(n, list(range(n - 1)), list(range(1, n)))
        cost = np.full(n - 1, 2**60, dtype=np.int64)
        supply = np.zeros(n)
        supply[0], supply[-1] = 3.0, -3.0
        flow, rounds = _min_cost_flow(st, cost, supply)
        assert rounds == 1
        assert flow.tolist() == [3.0] * (n - 1)

    def test_unbalanced_supply_is_infeasible(self):
        st = _structure(3, [0, 1], [1, 2])
        supply = np.array([2.0, 0.0, -1.0])
        with pytest.raises(FlowInfeasibleError, match="excess 1"):
            _min_cost_flow(st, np.zeros(2, dtype=np.int64), supply)


class TestCompactPassFallback:
    def test_infeasible_flow_falls_back_with_a_reason(self, monkeypatch):
        supplies = solver._objective_supplies

        def unbalanced(program, smo, index):
            supply, why = supplies(program, smo, index)
            supply[0] += 1.0  # more excess than any deficit absorbs
            return supply, why

        monkeypatch.setattr(solver, "_objective_supplies", unbalanced)
        smo = build_compact_program(example1(), ConstraintOptions(), 110.0)
        result = solve(smo.program, backend="cycle", context=smo)
        info = result.extra["cycle"]
        assert info["used"] is False
        assert info["reason"].startswith("min-cost flow failed: node ")
        reference = solve(smo.program, backend="revised")
        assert result.objective == pytest.approx(reference.objective, rel=1e-9)

    @pytest.mark.parametrize(
        "factory", [example1, example2, fig1_circuit, gaas_datapath]
    )
    def test_paper_designs_take_few_rounds(self, factory):
        graph = factory()
        period = minimize_cycle_time(graph).period
        smo = build_compact_program(graph, ConstraintOptions(), period)
        info = solve(smo.program, backend="cycle", context=smo).extra["cycle"]
        assert info["used"] is True
        assert 1 <= info["flow_rounds"] <= 10


def _networkx_find_positive_cycle(system, tol=1e-9):
    """The networkx-graph ``find_positive_cycle`` of earlier releases."""
    g = nx.DiGraph()
    g.add_nodes_from(n for n in system.nodes if n not in system.frozen)
    for arc in system.arcs:
        if arc.src in system.frozen or arc.dst in system.frozen:
            continue
        if g.has_edge(arc.src, arc.dst):
            g[arc.src][arc.dst]["weight"] = max(
                g[arc.src][arc.dst]["weight"], arc.weight
            )
        else:
            g.add_edge(arc.src, arc.dst, weight=arc.weight)
    nodes = list(g.nodes)
    if not nodes:
        return None
    dist = {n: 0.0 for n in nodes}
    pred = {n: None for n in nodes}
    flagged = None
    for round_idx in range(len(nodes) + 1):
        changed = False
        for a, b, data in g.edges(data=True):
            cand = dist[a] + data["weight"]
            if cand > dist[b] + tol:
                dist[b] = cand
                pred[b] = a
                changed = True
                if round_idx == len(nodes):
                    flagged = b
        if not changed:
            return None
    if flagged is None:
        return None
    node = flagged
    for _ in range(len(nodes)):
        node = pred[node]
    start = node
    cycle = [start]
    node = pred[start]
    while node != start:
        cycle.append(node)
        node = pred[node]
    cycle.reverse()
    return cycle


def _maxplus_system(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    nodes = [f"n{i}" for i in rng.sample(range(100), n)]
    arcs = [
        WeightedArc(rng.choice(nodes), rng.choice(nodes), float(rng.randint(-20, 6)))
        for _ in range(rng.randint(0, 3 * n))
    ]
    frozen = {v for v in nodes if rng.random() < 0.15}
    return MaxPlusSystem(nodes=nodes, arcs=arcs, frozen=frozen)


class TestPositiveCycleAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(300))
    def test_same_cycle(self, seed):
        """Same verdict as the reference; the cycle itself may differ."""
        system = _maxplus_system(seed)
        cycle = find_positive_cycle(system)
        reference = _networkx_find_positive_cycle(system)
        assert (cycle is None) == (reference is None)
        if cycle is None:
            return
        assert not set(cycle) & system.frozen
        heaviest = {}
        for arc in system.arcs:
            pair = (arc.src, arc.dst)
            heaviest[pair] = max(heaviest.get(pair, arc.weight), arc.weight)
        closed = cycle + cycle[:1]
        pairs = list(zip(closed, closed[1:]))
        assert all(pair in heaviest for pair in pairs)
        assert sum(heaviest[pair] for pair in pairs) > 0

    def test_some_systems_have_cycles(self):
        found = sum(
            find_positive_cycle(_maxplus_system(seed)) is not None
            for seed in range(300)
        )
        assert 30 <= found <= 270
