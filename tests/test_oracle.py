import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings

import quakeroute.dyngraph as dg
import quakeroute.oracle as oc
from conftest import make_graph, random_connected_graph, scenario_for, weighted_graphs
from helpers import brute_force_shortest, heap_distances, heap_path, next_slot


def test_dijkstra_triangle(triangle):
    w = triangle.nominal_minutes()
    assert np.allclose(w, [1.0, 1.0, 3.0])
    path = oc.dijkstra(triangle, w, 0, 2)
    assert path.nodes == [0, 1, 2]
    assert path.total_cost == pytest.approx(2.0)
    cost, nodes = brute_force_shortest(triangle, w, 0, 2)
    assert nodes == path.nodes and cost == path.total_cost


def test_dijkstra_trivial_and_errors(triangle):
    w = triangle.nominal_minutes()
    single = oc.dijkstra(triangle, w, 1, 1)
    assert single.nodes == [1] and single.total_cost == 0.0
    disconnected = make_graph([(0, 0), (0.5, 0.5), (1, 1)], [(0, 1)])
    with pytest.raises(oc.NoPathError):
        oc.dijkstra(disconnected, disconnected.nominal_minutes(), 0, 2)


def test_dijkstra_tie_breaks_to_smaller_next_id():
    # diamond with exactly equal-cost routes 0-1-3 and 0-2-3
    g = make_graph([(0.0, 0.5), (0.5, 0.0), (0.5, 1.0), (1.0, 0.5)],
                   [(0, 1), (0, 2), (1, 3), (2, 3)],
                   lengths=[1000.0] * 4, speeds=[60.0] * 4)
    path = oc.dijkstra(g, g.nominal_minutes(), 0, 3)
    assert path.nodes == [0, 1, 3]


def test_dijkstra_matches_enumeration_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(25):
        g = random_connected_graph(rng, int(rng.integers(3, 9)))
        w = rng.uniform(0.1, 5.0, g.n_edges)
        start, goal = rng.choice(g.n_nodes, 2, replace=False)
        got = oc.dijkstra(g, w, int(start), int(goal))
        cost, nodes = brute_force_shortest(g, w, int(start), int(goal))
        assert got.nodes == nodes
        assert got.total_cost == cost


def test_nodewise_on_line_is_the_line(line3):
    sc = scenario_for(line3, start=0, exit_=2)
    [path] = oc.nodewise_dijkstra(line3, [sc], sigma_frac=0.1)
    assert path.nodes == [0, 1, 2]
    assert path.reached
    assert len(path.edge_costs) == 2


def test_nodewise_degenerates_to_static_dijkstra(monkeypatch):
    g = dg.synth_city(5, 5, seed=13)
    sc = dg.random_scenario(g, np.random.default_rng(3))
    # no initial hit, and world steps that only count
    monkeypatch.setattr(dg, "INITIAL_FACTORS", (1.0, 1.0, 1.0))
    monkeypatch.setattr(dg, "advance", lambda state: setattr(state, "t", state.t + 1) or state)
    [rolled] = oc.nodewise_dijkstra(g, [sc], sigma_frac=0.0)
    nodes, costs = heap_path(g, g.nominal_minutes(), sc.start, sc.chosen_exit)
    assert rolled.nodes == nodes
    assert rolled.edge_costs == costs


def test_nodewise_budget_marks_failed(line3):
    sc = scenario_for(line3, start=0, exit_=2, max_steps=1)
    [path] = oc.nodewise_dijkstra(line3, [sc], sigma_frac=0.0)
    assert not path.reached
    assert len(path.nodes) == 2  # got one step in before the budget died


def test_nodewise_matches_manual_replay():
    """Replays the loop by hand: advance the world, then follow the current
    shortest path one edge."""
    g = dg.synth_city(8, 8, seed=7)
    sc = dg.random_scenario(g, np.random.default_rng(5))
    [got] = oc.nodewise_dijkstra(g, [sc], sigma_frac=0.1)

    state = dg.initial_state(g, [sc], sigma_frac=0.1)
    u = sc.start
    nodes = [u]
    costs = []
    while u != sc.chosen_exit and state.t < sc.max_steps:
        dg.advance(state)
        best_nodes, best_costs = heap_path(g, state.weights[0], u, sc.chosen_exit)
        costs.append(best_costs[0])
        nodes.append(best_nodes[1])
        u = best_nodes[1]
    assert got.nodes == nodes
    assert got.edge_costs == costs


def test_nodewise_lockstep_matches_one_scenario_calls():
    g = dg.synth_city(6, 6, seed=3)
    rng = np.random.default_rng(8)
    scenarios = [dg.random_scenario(g, rng) for _ in range(10)]
    scenarios = [dataclasses.replace(sc, max_steps=1 + i) if i % 4 == 0 else sc
                 for i, sc in enumerate(scenarios)]
    together = oc.nodewise_dijkstra(g, scenarios, sigma_frac=0.1)
    alone = [oc.nodewise_dijkstra(g, [sc], sigma_frac=0.1)[0] for sc in scenarios]
    assert [(p.nodes, p.edge_costs, p.reached) for p in together] == \
        [(p.nodes, p.edge_costs, p.reached) for p in alone]
    # arrivals after different numbers of steps, and budgets that run out
    assert any(p.reached for p in together) and not all(p.reached for p in together)
    assert len({len(p) for p in together if p.reached}) >= 3


def _city_scenarios():
    g = dg.synth_city(6, 6, seed=3)
    rng = np.random.default_rng(8)
    return g, [dg.random_scenario(g, rng) for _ in range(10)]


def test_nodewise_worlds_do_not_change_the_paths(monkeypatch):
    g, scenarios = _city_scenarios()
    one_world = oc.nodewise_dijkstra(g, scenarios)
    monkeypatch.setattr(oc, "WORLD_ROWS", 3)
    worlds = []
    initial_state = dg.initial_state
    monkeypatch.setattr(dg, "initial_state", lambda graph, part, *rest:
                        worlds.append(len(part)) or initial_state(graph, part, *rest))
    four_worlds = oc.nodewise_dijkstra(g, scenarios)
    assert worlds == [3, 3, 3, 1]
    assert [(p.nodes, p.edge_costs, p.reached) for p in four_worlds] == \
        [(p.nodes, p.edge_costs, p.reached) for p in one_world]


def test_lockstep_with_heap_oracle_slots_reproduces_nodewise(monkeypatch):
    """A policy that takes each row's slot by the scalar rule on its own heap
    distances drives the same paths as the batched oracle."""
    g, scenarios = _city_scenarios()
    monkeypatch.setattr(oc, "WORLD_ROWS", 4)  # rows are global indices across worlds

    def heap_slots(world, rows, here):
        slots = []
        for k, (i, u) in enumerate(zip(rows, here)):
            assert world.scenarios[k] == scenarios[i]
            dist = heap_distances(g, world.weights[k], scenarios[i].chosen_exit)
            slots.append(next_slot(g, world.weights[k], dist, u))
        return slots

    got = oc.lockstep(g, scenarios, 0.1, heap_slots)
    want = oc.nodewise_dijkstra(g, scenarios)
    assert [(p.nodes, p.edge_costs, p.reached) for p in got] == \
        [(p.nodes, p.edge_costs, p.reached) for p in want]
    assert any(p.reached for p in got)


def test_nodewise_stops_where_the_exit_is_unreachable():
    # 0 - 1 - 2, and 3 - 4 apart from them
    g = make_graph([(0.0, 0.5), (0.5, 0.5), (1.0, 0.5), (0.2, 0.9), (0.4, 0.9)],
                   [(0, 1), (1, 2), (3, 4)])
    [cut, fine] = oc.nodewise_dijkstra(
        g, [scenario_for(g, start=3, exit_=2), scenario_for(g, start=0, exit_=2)])
    assert (cut.nodes, cut.reached) == ([3], False)
    assert (fine.nodes, fine.reached) == ([0, 1, 2], True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(weighted_graphs())
def test_distances_to_matches_heap_distances(case):
    g, weights, goals = case
    got = oc.distances_to(g, weights, goals)
    want = [heap_distances(g, w, goal) for w, goal in zip(weights, goals)]
    assert np.array_equal(got, want)


# a diamond whose two routes from 0 to 3 tie exactly, and a node 4 apart
_TIED = make_graph([(0.0, 0.5), (0.5, 0.0), (0.5, 1.0), (1.0, 0.5), (0.9, 0.9)],
                   [(0, 1), (0, 2), (1, 3), (2, 3)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(weighted_graphs())
@example((_TIED, np.array([[1.0, 2.0, 2.0, 1.0], [3.0, 1.0, 1.0, 3.0]]), [3, 4]))
@example((make_graph([(0.2, 0.2), (0.8, 0.8)], [], lengths=[]), np.zeros((1, 0)), [1]))
def test_next_slots_match_the_scalar_rule(case):
    """At every node but the goal, every row's slot equals the scalar rule's on
    the heap distances (smallest neighbor id among exact ties, -1 where the goal
    is unreachable), and dijkstra walks the reference's path. The examples add
    exact ties, a goal that no other node reaches and a graph without edges."""
    g, weights, goals = case
    dist = np.array([heap_distances(g, w, goal) for w, goal in zip(weights, goals)])
    for u in range(g.n_nodes):
        got = oc._next_slots(g, weights, dist, [u] * len(goals))
        for w, d, goal, j in zip(weights, dist, goals, got):
            if u != goal:
                assert j == next_slot(g, w, d, u)
                want = heap_path(g, w, u, goal)
                if want is None:
                    with pytest.raises(oc.NoPathError):
                        oc.dijkstra(g, w, u, goal)
                else:
                    path = oc.dijkstra(g, w, u, goal)
                    assert (path.nodes, path.edge_costs) == want


@pytest.mark.parametrize("value", [-0.5, 0.0, np.nan, np.inf])
def test_dijkstra_rejects_weights_that_are_not_finite_and_positive(value):
    """A negative edge would keep the distance sweeps lowering distances forever."""
    g = dg.synth_city(3, 3, seed=0)
    weights = g.nominal_minutes()
    weights[4] = value
    with pytest.raises(ValueError, match="finite, positive values, one per edge"):
        oc.dijkstra(g, weights, 0, 8)
    with pytest.raises(ValueError, match="one per edge"):
        oc.dijkstra(g, g.nominal_minutes()[1:], 0, 8)


def test_arrival_rate():
    assert oc.arrival_rate([True] * 5) == 1.0
    assert oc.arrival_rate([True] * 19 + [False]) == pytest.approx(0.95)
    assert oc.arrival_rate([False, False]) == 0.0
    paths = [oc.Path([0], [], reached=True), oc.Path([0], [], reached=False)]
    assert oc.arrival_rate([p.reached for p in paths]) == 0.5
    with pytest.raises(ValueError):
        oc.arrival_rate([])


def test_path_accuracy():
    assert oc.path_accuracy(7.5, 7.5) == 1.0
    assert oc.path_accuracy(10.0, 20.0) == pytest.approx(0.5)
    assert oc.path_accuracy(20.0, 10.0) == pytest.approx(0.0)
    assert oc.path_accuracy(5.0, 6.0) <= 1.0
    with pytest.raises(ValueError):
        oc.path_accuracy(10.0, 0.0)


def test_better_or_equal_rate():
    assert oc.better_or_equal_rate([(5.0, 5.0), (4.0, 4.0)]) == 1.0
    assert oc.better_or_equal_rate([(5.0, 4.0), (5.0, 6.0)]) == 0.5
    with pytest.raises(ValueError):
        oc.better_or_equal_rate([])
