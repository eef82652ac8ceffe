from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from quakeroute.dyngraph import CityGraph, Scenario


def make_graph(coords, edges, lengths=None, speeds=None) -> CityGraph:
    coords = np.asarray(coords, float)
    edges = np.asarray([sorted(e) for e in edges], int)
    if lengths is None:
        lengths = np.linalg.norm(coords[edges[:, 0]] - coords[edges[:, 1]],
                                 axis=1) * 2000.0
    if speeds is None:
        speeds = np.full(len(edges), 60.0)
    return CityGraph(xy=coords, edges=edges,
                     length_m=np.asarray(lengths, float),
                     speed_kmh=np.asarray(speeds, float))


@pytest.fixture
def line3() -> CityGraph:
    """Three nodes in a row: 0 - 1 - 2, one-minute edges."""
    return make_graph([(0.0, 0.5), (0.5, 0.5), (1.0, 0.5)], [(0, 1), (1, 2)],
                      lengths=[1000.0, 1000.0], speeds=[60.0, 60.0])


@pytest.fixture
def triangle() -> CityGraph:
    """Triangle with weights 1, 1, 3 minutes on (0,1), (1,2), (0,2)."""
    return make_graph([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)],
                      [(0, 1), (1, 2), (0, 2)],
                      lengths=[1000.0, 1000.0, 3000.0],
                      speeds=[60.0, 60.0, 60.0])


def scenario_for(graph: CityGraph, start=0, exit_=None, epicenter=(0.0, 0.0),
                 seed=0, max_steps=None) -> Scenario:
    if exit_ is None:
        exit_ = graph.n_nodes - 1
    return Scenario(epicenter=epicenter, start=start, exits=(exit_,),
                    chosen_exit=exit_, rng_seed=seed,
                    max_steps=max_steps or 2 * graph.n_nodes)


def random_connected_graph(rng: np.random.Generator, n_nodes: int) -> CityGraph:
    """Small random connected graph with continuous random weights."""
    coords = rng.uniform(0, 1, (n_nodes, 2))
    edges = {(i - 1, i) for i in range(1, n_nodes)}  # chain keeps it connected
    n_extra = int(rng.integers(0, n_nodes))
    for _ in range(n_extra):
        u, v = sorted(rng.choice(n_nodes, 2, replace=False))
        edges.add((int(u), int(v)))
    edges = sorted(edges)
    lengths = rng.uniform(200.0, 3000.0, len(edges))
    speeds = rng.choice([30.0, 40.0, 50.0], len(edges))
    return make_graph(coords, edges, lengths, speeds)


@st.composite
def weighted_graphs(draw, max_nodes=10, max_rows=4):
    """A random connected graph, maybe with isolated nodes, and (S, E) weights:
    small integers, so that equal-cost routes tie, or floats."""
    n = draw(st.integers(2, max_nodes))
    edges = {(i - 1, i) for i in range(1, n)}
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = draw(st.permutations(range(n)))[:2]
        edges.add((min(u, v), max(u, v)))
    n_all = n + draw(st.integers(0, 2))
    coords = [(i / n_all, (i * 7 % n_all) / n_all) for i in range(n_all)]
    g = make_graph(coords, sorted(edges))
    rows = draw(st.integers(1, max_rows))
    if draw(st.booleans()):
        value = st.integers(1, 3).map(float)
    else:
        value = st.floats(0.01, 100.0)
    weights = draw(st.lists(value, min_size=rows * g.n_edges, max_size=rows * g.n_edges))
    goals = draw(st.lists(st.integers(0, n_all - 1), min_size=rows, max_size=rows))
    return g, np.reshape(weights, (rows, g.n_edges)), goals
