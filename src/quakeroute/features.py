"""Model inputs and supervised dataset generation.

Each decision point becomes a 36-value vector: the quake epicenter, the
current node, the destination, and one six-value block per adjacent edge
(neighbor coordinates, scaled travel time, edge betweenness, distance to the
destination, heading cosine), zero-padded to five blocks, built for one row
of a world with scalar arithmetic. ``generate_dataset`` runs the oracle over
all of its scenarios in one ``oracle.lockstep`` world.
"""
from __future__ import annotations

import heapq
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path as FilePath

import numpy as np

from . import dyngraph, oracle
from .dyngraph import CityGraph, GraphError, Scenario

log = logging.getLogger(__name__)

N_FEATURES = 36
N_BLOCKS = 5
BLOCK_SIZE = 6
HEAD_SIZE = 6
# Travel times are divided by the global weight cap so they land in [0, 1]
# (the uncapped initial x5 hit can push a little above 1).
WEIGHT_SCALE = 5.0
# a Dataset's columns, which are also the keys of a JSON-lines record
COLUMNS = ("features", "label", "scenario_id", "t")
WORLD_ROWS = 256  # generate_dataset steps at most this many scenarios in one world


def euclid(p, q) -> float:
    return math.hypot(q[0] - p[0], q[1] - p[1])


def direction_cosine(current, neighbor, target) -> float:
    """Cosine between the step direction and the direction to the target.

    Degenerate (zero-length) directions score 0 and are logged.
    """
    ax, ay = neighbor[0] - current[0], neighbor[1] - current[1]
    bx, by = target[0] - current[0], target[1] - current[1]
    na = math.hypot(ax, ay)
    nb = math.hypot(bx, by)
    if na == 0.0 or nb == 0.0:
        log.debug("degenerate direction cosine at %s", current)
        return 0.0
    return (ax * bx + ay * by) / (na * nb)


def edge_betweenness(graph: CityGraph, weights: np.ndarray | None = None) -> np.ndarray:
    """Per-edge betweenness: fraction of all ordered shortest paths using the edge.

    Brandes accumulation over every source with the undamaged travel times;
    equal-cost paths split their count. Normalized by n(n-1), so cross-pairs
    of a disconnected graph simply contribute nothing.
    """
    if weights is None:
        weights = graph.nominal_minutes()
    n = graph.n_nodes
    cb = np.zeros(graph.n_edges)
    for s in range(n):
        dist = np.full(n, np.inf)
        sigma = np.zeros(n)
        preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        dist[s] = 0.0
        sigma[s] = 1.0
        done = np.zeros(n, bool)
        heap = [(0.0, s)]
        order: list[int] = []
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            order.append(u)
            for v, e in graph.adj[u]:
                nd = d + weights[e]
                tol = 1e-12 * max(1.0, nd)
                if nd < dist[v] - tol:
                    dist[v] = nd
                    sigma[v] = sigma[u]
                    preds[v] = [(u, e)]
                    heapq.heappush(heap, (nd, v))
                elif abs(nd - dist[v]) <= tol and not done[v]:
                    sigma[v] += sigma[u]
                    preds[v].append((u, e))
        delta = np.zeros(n)
        for w in reversed(order):
            for v, e in preds[w]:
                share = sigma[v] / sigma[w] * (1.0 + delta[w])
                cb[e] += share
                delta[v] += share
    return cb / (n * (n - 1))


def build_feature_vector(state: dyngraph.DynamicState, row: int, current: int,
                         betweenness: np.ndarray):
    """Feature vector of world row ``row`` at its decision node ``current``.

    Returns ``(features, mask, neighbors)``: the 36-value input, a boolean
    mask over the five blocks (False = zero padding) and the neighbor ids in
    block order (ascending id).
    """
    graph = state.graph
    scenario = state.scenarios[row]
    weights = state.weights[row]
    neighbors = graph.neighbors(current)
    if len(neighbors) > N_BLOCKS:
        raise GraphError(f"node {current} has degree {len(neighbors)} > {N_BLOCKS}")
    dest = scenario.chosen_exit
    dest_xy = graph.xy[dest]
    cur_xy = graph.xy[current]

    feats = np.zeros(N_FEATURES)
    feats[0:2] = scenario.epicenter
    feats[2:4] = cur_xy
    feats[4:6] = dest_xy
    mask = np.zeros(N_BLOCKS, bool)
    for j, v in enumerate(neighbors):
        e = graph.edge_index(current, v)
        base = HEAD_SIZE + j * BLOCK_SIZE
        feats[base:base + 2] = graph.xy[v]
        feats[base + 2] = weights[e] / WEIGHT_SCALE
        feats[base + 3] = betweenness[e]
        feats[base + 4] = euclid(graph.xy[v], dest_xy)
        feats[base + 5] = direction_cosine(cur_xy, graph.xy[v], dest_xy)
        mask[j] = True
    return feats, mask, neighbors


def block_mask(features: np.ndarray) -> np.ndarray:
    """Recover the neighbor mask from a stored vector (padding blocks have w == 0)."""
    feats = np.asarray(features)
    w = feats[..., HEAD_SIZE + 2::BLOCK_SIZE]
    return w > 0.0


def _parse_row(doc) -> tuple:
    """One ``save_jsonl`` record as a row of ``COLUMNS``; anything else is a ValueError."""
    if not isinstance(doc, dict) or set(doc) != set(COLUMNS):
        raise ValueError(f"a sample needs exactly the keys {sorted(COLUMNS)}")
    values = doc["features"]
    if (not isinstance(values, list) or len(values) != N_FEATURES
            or not all(type(x) in (int, float) for x in values)):
        raise ValueError(f"features must be a list of {N_FEATURES} numbers")
    features = np.asarray(values, float)
    if not np.isfinite(features).all():
        raise ValueError("features hold non-finite values")
    label = doc["label"]
    if type(label) is not int or not 0 <= label < N_BLOCKS:
        raise ValueError(f"label {label!r} is not an integer in 0-{N_BLOCKS - 1}")
    if not block_mask(features)[label]:
        raise ValueError(f"label {label} points at a padding block")
    for key in ("scenario_id", "t"):
        if type(doc[key]) is not int:
            raise ValueError(f"{key} {doc[key]!r} is not an integer")
    return features, label, doc["scenario_id"], doc["t"]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Oracle decisions as four read-only columns, one row per sample.

    ``features`` is (n, 36); ``label`` (the chosen neighbor block),
    ``scenario_id`` and ``t`` are (n,) integers. Indexing with a slice, an
    index array or a boolean mask selects rows and returns a Dataset.
    """

    features: np.ndarray
    label: np.ndarray
    scenario_id: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        n = len(self.label)
        for key, dtype, shape in zip(COLUMNS, (float, int, int, int),
                                     ((n, N_FEATURES), (n,), (n,), (n,))):
            column = np.array(getattr(self, key), dtype)
            if column.shape != shape:
                raise ValueError(f"{key} has shape {column.shape}, expected {shape}")
            column.setflags(write=False)
            object.__setattr__(self, key, column)
        object.__setattr__(self, "_masks", block_mask(self.features))
        self._masks.setflags(write=False)

    @staticmethod
    def from_rows(rows) -> "Dataset":
        """Columns from a sequence of rows in ``COLUMNS`` order."""
        features, label, scenario_id, t = zip(*rows) if rows else ((), (), (), ())
        return Dataset(np.reshape(features, (-1, N_FEATURES)), label, scenario_id, t)

    def __len__(self):
        return len(self.label)

    def __getitem__(self, rows) -> "Dataset":
        return Dataset(*(getattr(self, key)[rows] for key in COLUMNS))

    def feature_matrix(self) -> np.ndarray:
        return self.features

    def labels(self) -> np.ndarray:
        return self.label

    def masks(self) -> np.ndarray:
        return self._masks

    def scenario_ids(self) -> np.ndarray:
        return self.scenario_id

    def save_jsonl(self, path: str | FilePath) -> None:
        with open(path, "w") as fh:
            for row in zip(*(getattr(self, key).tolist() for key in COLUMNS)):
                fh.write(json.dumps(dict(zip(COLUMNS, row))) + "\n")

    @staticmethod
    def load_jsonl(path: str | FilePath) -> "Dataset":
        """Read a ``save_jsonl`` file; a malformed line raises ValueError naming it."""
        rows = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    rows.append(_parse_row(json.loads(line)))
                except (ValueError, OverflowError) as exc:  # overflow: a huge integer
                    raise ValueError(f"{path}, line {lineno}: {exc}") from None
        return Dataset.from_rows(rows)

    def split(self, val_fraction: float = 0.1, seed: int = 0):
        """Train/validation split by scenario, so no rollout leaks across."""
        ids = np.unique(self.scenario_id)
        rng = np.random.default_rng(seed)
        rng.shuffle(ids)
        n_val = max(1, round(val_fraction * len(ids))) if len(ids) > 1 else 0
        val = np.isin(self.scenario_id, ids[:n_val])
        return self[~val], self[val]


def _scenario_for_index(graph: CityGraph, seed: int, index: int) -> Scenario:
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return dyngraph.random_scenario(graph, rng)


def generate_dataset(graph: CityGraph, n_scenarios: int, seed: int,
                     sigma_frac: float = 0.1) -> Dataset:
    """Oracle-labeled corpus over randomized scenarios, deterministic in the seed.

    Each scenario draws a fresh epicenter, start and chosen exit; every node
    the oracle visits emits one sample labeled with the block index of the
    oracle's move. Scenarios whose oracle rollout fails are skipped, with a
    warning that gives the reason. Consecutive worlds of at most
    ``WORLD_ROWS`` scenarios bound the memory; rows never interact, so the
    output does not depend on it.
    """
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be at least 1")
    betweenness = edge_betweenness(graph)
    scenarios = [_scenario_for_index(graph, seed, i) for i in range(n_scenarios)]
    samples: list[list[tuple]] = [[] for _ in scenarios]
    paths = []
    for first in range(0, n_scenarios, WORLD_ROWS):
        def label(world, rows, here, first=first):
            going = oracle.oracle_next(world, rows, here)
            for k, (i, u, v) in enumerate(zip(rows, here, going)):
                if v >= 0:
                    feats, _, neighbors = build_feature_vector(world, k, u, betweenness)
                    samples[first + i].append((feats, neighbors.index(v), first + i, world.t))
            return going

        paths += oracle.lockstep(graph, scenarios[first:first + WORLD_ROWS], sigma_frac, label)
    for i, (sc, path) in enumerate(zip(scenarios, paths)):
        if path.reached:
            continue
        samples[i] = []
        if len(path) - 1 < sc.max_steps:
            log.warning("scenario %d skipped: exit %d unreachable from %d",
                        i, sc.chosen_exit, path.nodes[-1])
        else:
            log.warning("scenario %d skipped: budget exhausted after %d steps",
                        i, len(path) - 1)
    return Dataset.from_rows([row for rows in samples for row in rows])
