"""Shortest-path baselines, the one world-step loop, and evaluation metrics.

The module owns the shortest-path rule: the weight check, the relative tie
slack ``_TIE_EPS`` and the one distance solver ``distances_to``, which relaxes
``graph.arcs`` for many rows at once. A move out of u is a slot: the index j
of its arc ``graph.arcs[:, j, u]``. One next-slot rule, ``_next_slots``, takes
every shortest-path step: ``dijkstra`` walks it on frozen weights, and the
labeling oracle ``nodewise_dijkstra`` is ``lockstep`` with ``oracle_next``,
which applies it to every row of a world at once. ``edge_betweenness`` counts
the same shortest paths for the feature rows. ``lockstep`` steps worlds with
one row per scenario and asks a policy for the slot of every unfinished row.
"""
from __future__ import annotations

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


def _checked_weights(graph: CityGraph, weights) -> np.ndarray:
    """``weights`` as floats, or ValueError unless it is one finite, positive value
    per edge: ``distances_to`` would sweep around a negative edge forever."""
    weights = np.asarray(weights, float)
    if weights.shape != (graph.n_edges,) or not (np.isfinite(weights) & (weights > 0)).all():
        raise ValueError(f"weights must be {graph.n_edges} finite, positive values, one per edge")
    return weights


def _next_slots(graph: CityGraph, weights: np.ndarray, dist: np.ndarray, here) -> np.ndarray:
    """Row k's slot of the smallest-id neighbor of ``here[k]`` on a shortest path
    to its goal, where ``w + d[v] <= du + _TIE_EPS * du``, or -1 if the
    goal is unreachable. ``weights`` is (S, E), ``dist`` (S, n) from ``distances_to``.
    """
    here = np.asarray(here, int)
    rows = np.arange(len(here))
    heads, edges = graph.arcs[:, :, here]  # (degree, S): each row's arcs
    pad = np.full((len(here), 1), np.inf)  # the phantom edge's weight, the dummy's distance
    w = np.hstack([weights, pad])[rows, edges]
    d = np.hstack([dist, pad])[rows, heads]
    du = dist[rows, here]
    on = w + d <= du + _TIE_EPS * du
    first = on.argmax(axis=0) if len(on) else 0  # an edgeless graph has no slot
    return np.where(np.isfinite(du), first, -1)


def dijkstra(graph: CityGraph, weights, start: int, goal: int) -> Path:
    """Minimal-cost path on frozen weights; ties broken by smaller next node id."""
    weights = _checked_weights(graph, weights)
    if not (0 <= start < graph.n_nodes and 0 <= goal < graph.n_nodes):
        raise NoPathError("start or goal not in graph")
    dist = distances_to(graph, weights[None], [goal])
    if not math.isfinite(dist[0, start]):
        raise NoPathError(f"node {goal} is unreachable from {start}")
    path = Path([start])
    while path.nodes[-1] != goal:
        u = path.nodes[-1]
        v, e = graph.arcs[:, _next_slots(graph, weights[None], dist, [u])[0], u]
        path.edge_costs.append(float(weights[e]))
        path.nodes.append(int(v))
        if len(path) > graph.n_nodes:
            raise NoPathError("path reconstruction failed to make progress")
    return path


def distances_to(graph: CityGraph, weights: np.ndarray, goals) -> np.ndarray:
    """Shortest distances from every node to each row's goal, shape (S, n).

    ``weights`` is (S, E). Each sweep relaxes every arc of every row at once,
    ``d[v] = min(d[v], w + d[u])``, until no distance falls. With positive
    weights that fixpoint is unique, so a row equals a binary-heap Dijkstra's
    distances bit for bit; a negative cycle would never stop falling. The
    sweeps read ``graph.arcs``; its phantom edge weighs inf.
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


def edge_betweenness(graph: CityGraph, weights: np.ndarray | None = None) -> np.ndarray:
    """Per-edge betweenness: fraction of all ordered shortest paths using the edge.

    Brandes accumulation from every source with the undamaged travel times,
    or ``weights``, one finite, positive value per edge (else ValueError);
    equal-cost paths split their count. All sources go at once: row s holds
    source s, ``distances_to`` gives the distances, and two sweeps over the
    arc table visit the nodes in heap-pop order (distance, then id). Path
    counts go forward, dependencies backward. An arc u -> v lies on a shortest
    path when ``|d[u] + w - d[v]| <= _TIE_EPS * (d[u] + w)``, the tie slack of
    ``_next_slots``. Normalized by n(n-1), so cross-pairs of a disconnected
    graph simply contribute nothing.
    """
    weights = _checked_weights(graph, graph.nominal_minutes() if weights is None else weights)
    n = graph.n_nodes
    heads, arcs = graph.arcs.transpose(0, 2, 1)  # (n, degree): node u's arcs
    arc_w = np.append(weights, np.inf)[arcs]
    rows = np.arange(n)
    dist = distances_to(graph, np.broadcast_to(weights, (n, len(weights))), rows)
    order = np.argsort(dist, axis=1, kind="stable").T  # pop order: distance, then id
    dist = np.hstack([dist, np.full((n, 1), np.nan)])  # so no padding arc is on a path
    col = rows[:, None]
    sigma = np.eye(n, n + 1)  # shortest-path counts from each source
    delta = np.zeros((n, n + 1))
    part = np.zeros((n, len(weights) + 1))  # each source's dependency on each edge
    with np.errstate(invalid="ignore", divide="ignore"):  # at unreachable nodes
        for u in order:  # the k-th node popped from every source, and its arcs
            v = heads[u]
            nd = dist[rows, u, None] + arc_w[u]
            on = abs(nd - dist[col, v]) <= _TIE_EPS * nd
            sigma[col, v] += np.where(on, sigma[rows, u, None], 0.0)
        for w in order[::-1]:  # back again, crediting the arcs into each node
            v = heads[w]
            nd = dist[col, v] + arc_w[w]
            on = abs(nd - dist[rows, w, None]) <= _TIE_EPS * nd
            share = np.where(
                on, sigma[col, v] / sigma[rows, w, None] * (1.0 + delta[rows, w, None]), 0.0)
            delta[col, v] += share
            part[col, arcs[w]] += share
    cb = np.zeros(len(weights))
    for row in part[:, :-1]:  # source by source, as Brandes adds them up
        cb += row
    return cb / (n * (n - 1))


def lockstep(graph: CityGraph, scenarios, sigma_frac: float, policy) -> list[Path]:
    """Step worlds of scenarios until each row arrives, spends its budget or is stuck.

    Consecutive worlds of at most ``WORLD_ROWS`` scenarios bound the memory.
    Each world step advances every unfinished row, then moves row k out of
    ``here[k]`` by slot ``policy(world, rows, here)[k]``, where ``rows[k]`` is
    its index in ``scenarios``; -1 stops the row where it is. Rows never
    interact, so each path is the one its scenario takes alone wherever the
    policy picks a row's slot as it would alone: ``oracle_next`` does, bit for
    bit, while a batched model forward may round otherwise (``hybrid.rollout``).
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
                    v, e = graph.arcs[:, j, u]
                    paths[i].edge_costs.append(float(world.weights[k, e]))
                    paths[i].nodes.append(int(v))
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
    dist = distances_to(world.graph, world.weights, [sc.chosen_exit for sc in world.scenarios])
    return _next_slots(world.graph, world.weights, dist, here).tolist()


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
