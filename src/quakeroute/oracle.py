"""Shortest-path baselines, the one world-step loop, and evaluation metrics.

``dijkstra`` solves the static problem on frozen weights with a binary heap;
``distances_to`` relaxes ``graph.arcs`` for many rows at once. A move out of u
is a slot: the index j of its arc in ``graph.adj[u]``. ``lockstep`` steps
worlds with one row per scenario and asks a policy for the slot of every
unfinished row. The labeling oracle ``nodewise_dijkstra`` is ``lockstep`` with
``oracle_next``, which follows a shortest path on each row's current weights,
all rows solved at once by ``distances_to``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import dyngraph
from .dyngraph import CityGraph

# Relative slack when testing whether an edge lies on a shortest path.
_TIE_EPS = 1e-12
WORLD_ROWS = 256  # lockstep steps at most this many scenarios in one world


class NoPathError(ValueError):
    """Goal unreachable from start under the given weights."""


@dataclass
class Path:
    """A traversed route plus the weight of each edge at traversal time."""

    nodes: list[int]
    edge_costs: list[float] = field(default_factory=list)
    reached: bool = True

    @property
    def total_cost(self) -> float:
        return float(sum(self.edge_costs))

    def __len__(self) -> int:
        return len(self.nodes)


def _distances(graph: CityGraph, weights: np.ndarray, source: int) -> np.ndarray:
    """Single-source shortest distances over frozen weights (binary heap)."""
    dist = np.full(graph.n_nodes, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = np.zeros(graph.n_nodes, bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, e in graph.adj[u]:
            nd = d + weights[e]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _greedy_next(graph: CityGraph, weights: np.ndarray, dist_to_goal: np.ndarray,
                 u: int) -> int:
    """Slot of u's smallest-id neighbor lying on a shortest path to the goal."""
    du = dist_to_goal[u]
    tol = _TIE_EPS * max(1.0, du)
    for j, (v, e) in enumerate(graph.adj[u]):  # adj is sorted by neighbor id
        if weights[e] + dist_to_goal[v] <= du + tol:
            return j
    raise NoPathError(f"no shortest-path step out of node {u}")


def dijkstra(graph: CityGraph, weights: np.ndarray, start: int, goal: int) -> Path:
    """Minimal-cost path on frozen weights; ties broken by smaller next node id."""
    if not (0 <= start < graph.n_nodes and 0 <= goal < graph.n_nodes):
        raise NoPathError("start or goal not in graph")
    if start == goal:
        return Path([start], [])
    dist = _distances(graph, weights, goal)
    if not math.isfinite(dist[start]):
        raise NoPathError(f"node {goal} is unreachable from {start}")
    nodes = [start]
    costs: list[float] = []
    u = start
    while u != goal:
        v, e = graph.adj[u][_greedy_next(graph, weights, dist, u)]
        costs.append(float(weights[e]))
        nodes.append(v)
        u = v
        if len(nodes) > graph.n_nodes:
            raise NoPathError("path reconstruction failed to make progress")
    return Path(nodes, costs)


def distances_to(graph: CityGraph, weights: np.ndarray, goals) -> np.ndarray:
    """Shortest distances from every node to each row's goal, shape (S, n).

    ``weights`` is (S, E). Each sweep relaxes every arc of every row at once,
    ``d[v] = min(d[v], w + d[u])``, until no distance falls. With positive
    weights that fixpoint is unique, so a row equals ``_distances`` bit for
    bit. The sweeps read ``graph.arcs``; its phantom edge weighs inf.
    """
    heads, arcs = graph.arcs
    arc_weights = np.vstack([weights.T, np.full(len(weights), np.inf)])[arcs]
    dist = np.full((graph.n_nodes + 1, len(weights)), np.inf)  # and the dummy node
    dist[goals, np.arange(len(weights))] = 0.0
    nodes = dist[:-1]
    while True:
        via = (arc_weights + dist[heads]).min(axis=0, initial=np.inf)
        if not (via < nodes).any():
            return nodes.T
        np.minimum(nodes, via, out=nodes)


def lockstep(graph: CityGraph, scenarios, sigma_frac: float, policy) -> list[Path]:
    """Step worlds of scenarios until each row arrives, spends its budget or is stuck.

    Consecutive worlds of at most ``WORLD_ROWS`` scenarios bound the memory.
    Each world step advances every unfinished row, then moves row k out of
    ``here[k]`` by slot ``policy(world, rows, here)[k]``, where ``rows[k]`` is
    its index in ``scenarios``; -1 stops the row where it is. Rows never
    interact, so each path is the one its scenario takes alone.
    """
    scenarios = tuple(scenarios)
    paths = [Path([sc.start]) for sc in scenarios]
    for first in range(0, len(scenarios), WORLD_ROWS):
        world = dyngraph.initial_state(graph, scenarios[first:first + WORLD_ROWS], sigma_frac)
        rows = list(range(first, first + len(world.scenarios)))  # a start is never an exit
        while rows:
            dyngraph.advance(world)
            here = [paths[i].nodes[-1] for i in rows]
            going = policy(world, rows, here)
            for k, (i, u, j) in enumerate(zip(rows, here, going)):
                if j >= 0:
                    v, e = graph.adj[u][j]
                    paths[i].edge_costs.append(float(world.weights[k, e]))
                    paths[i].nodes.append(v)
            keep = [j >= 0 and paths[i].nodes[-1] != sc.chosen_exit and world.t < sc.max_steps
                    for i, j, sc in zip(rows, going, world.scenarios)]
            if not all(keep):
                world.keep(keep)
                rows = [i for i, k in zip(rows, keep) if k]
    for path, sc in zip(paths, scenarios):
        path.reached = path.nodes[-1] == sc.chosen_exit
    return paths


def oracle_next(world: dyngraph.DynamicState, rows, here) -> list[int]:
    """Each row's slot of a current shortest path; -1 if its exit is unreachable."""
    graph = world.graph
    dist = distances_to(graph, world.weights, [sc.chosen_exit for sc in world.scenarios])
    return [_greedy_next(graph, w, d, u) if math.isfinite(d[u]) else -1
            for w, d, u in zip(world.weights, dist, here)]


def nodewise_dijkstra(graph: CityGraph, scenarios, sigma_frac: float = 0.1) -> list[Path]:
    """Replan the shortest path at every node while the world evolves.

    A rollout that spends its step budget, or stands where its exit cannot be
    reached, ends unreached.
    """
    return lockstep(graph, scenarios, sigma_frac, oracle_next)


# ---------------------------------------------------------------------------
# Metrics


def arrival_rate(reached) -> float:
    """Fraction of rollouts that reached the exit, from one bool per rollout."""
    reached = list(reached)
    if not reached:
        raise ValueError("arrival_rate needs at least one rollout")
    return sum(reached) / len(reached)


def path_accuracy(dij_cost: float, model_cost: float) -> float:
    """Travel-time quality of a model path relative to the oracle path.

    1 - |1 - dij/model|: equal costs score 1; both slower and faster paths
    score below 1.
    """
    if model_cost <= 0:
        raise ValueError("model path cost must be positive")
    return 1.0 - abs(1.0 - dij_cost / model_cost)


def better_or_equal_rate(pairs) -> float:
    """Fraction of (dij_cost, model_cost) pairs where the model was at least as fast."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("better_or_equal_rate needs at least one pair")
    return sum(1 for dij, model in pairs if model <= dij) / len(pairs)
