"""Model inputs and supervised dataset generation.

Each decision point becomes a 36-value vector: the quake epicenter, the
current node, the destination, and one six-value block per adjacent edge
(neighbor coordinates, scaled travel time, edge betweenness, distance to the
destination, heading cosine), zero-padded to five blocks; block j at node u
describes the arc in slot j, ``graph.arcs[:, j, u]``. ``build_feature_vector``
builds a world step's rows in one matrix from per-destination tables kept on
the graph; their betweenness is ``oracle.edge_betweenness``, once per graph
(``CityGraph.betweenness``). ``generate_dataset`` labels each oracle move with
its slot over ``dyngraph.random_scenarios``. The module owns the sample-row
rule: the layout and block rule of ``Dataset.load_jsonl`` and ``load_sample``,
which read through ``files.read_json``.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path as FilePath

import numpy as np

from . import dyngraph, files, oracle
from .dyngraph import CityGraph, GraphError
from .oracle import edge_betweenness  # the same function; perfbench wraps it by this name

log = logging.getLogger(__name__)

# A row is a head (the epicenter, the current node, the destination) and one
# block per neighbor slot. Its first N_EPI columns condition the model, the
# other N_MAIN are its main input, and it scores one logit per block.
N_EPI, HEAD_SIZE, N_BLOCKS, BLOCK_SIZE = 2, 6, dyngraph.MAX_DEGREE, 6
N_FEATURES = HEAD_SIZE + N_BLOCKS * BLOCK_SIZE
N_MAIN = N_FEATURES - N_EPI
# Travel times are divided by the global weight cap so they land in [0, 1]
# (the uncapped initial x5 hit can push a little above 1).
WEIGHT_SCALE = 5.0
# a Dataset's columns, which are also the keys of a JSON-lines record
COLUMNS = ("features", "label", "scenario_id", "t")
_hypot = np.frompyfunc(math.hypot, 2, 1)  # bit for bit as scalar math.hypot
# the layout of one JSON-lines record, for files.read_json
_SAMPLE = {"features": ("a finite number",) * N_FEATURES, "label": "an integer",
           "scenario_id": "a non-negative integer", "t": "a non-negative integer"}


def _destination_table(graph: CityGraph, dest: int) -> np.ndarray:
    """Every node's row heading to ``dest``, with 0 for the epicenter and the
    travel times: an (n, 36) table, built on first use and kept on the graph.
    Distances are scalar ``math.hypot``; a zero-length heading scores 0."""
    if dest in graph.feature_tables:
        return graph.feature_tables[dest]
    if graph.arcs.shape[1] > N_BLOCKS:  # the graph's largest degree
        node = max(range(graph.n_nodes), key=graph.degree)
        raise GraphError(f"node {node} has degree {graph.degree(node)} > {N_BLOCKS}")
    heads, arcs = graph.arcs  # (degree, n): node u's arcs, padded past its degree
    (ux, uy), (tx, ty) = graph.xy.T, graph.xy[dest]
    vx, vy = np.append(graph.xy, [[0.0, 0.0]], axis=0)[heads].transpose(2, 0, 1)
    ax, ay, bx, by = vx - ux, vy - uy, tx - ux, ty - uy  # the step, and the way to dest
    na, nb = _hypot(ax, ay).astype(float), _hypot(bx, by).astype(float)
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where((na == 0.0) | (nb == 0.0), 0.0, (ax * bx + ay * by) / (na * nb))
    blocks = np.stack([vx, vy, np.zeros_like(vx), np.append(graph.betweenness, 0.0)[arcs],
                       _hypot(tx - vx, ty - vy).astype(float), cos], axis=-1)
    table = np.zeros((graph.n_nodes, N_FEATURES))
    table[:, 2:4], table[:, 4:6] = graph.xy, graph.xy[dest]
    blocks = np.where(arcs[..., None] < graph.n_edges, blocks, 0.0)  # padding is +0.0
    width = len(arcs) * BLOCK_SIZE
    table[:, HEAD_SIZE:HEAD_SIZE + width] = blocks.transpose(1, 0, 2).reshape(len(table), width)
    table.setflags(write=False)
    graph.feature_tables[dest] = table
    return table


def build_feature_vector(world: dyngraph.DynamicState, here) -> np.ndarray:
    """The (S, 36) inputs of the world's rows, row k at its decision node ``here[k]``:
    its destination's table row with the epicenter and the row's travel times.
    Block j describes the arc ``graph.arcs[:, j, here[k]]``; the blocks past
    the node's degree are zero padding, which ``block_mask`` tells apart."""
    graph, here = world.graph, np.asarray(here, int)
    x = np.array([_destination_table(graph, sc.chosen_exit)[u]
                  for sc, u in zip(world.scenarios, here)]).reshape(len(here), N_FEATURES)
    x[:, :N_EPI] = [sc.epicenter for sc in world.scenarios]
    edges = graph.arcs[1][:, here].T  # (S, degree): each row's edges, then the phantom
    x[:, HEAD_SIZE + 2:HEAD_SIZE + edges.shape[1] * BLOCK_SIZE:BLOCK_SIZE] = np.take_along_axis(
        np.append(world.weights, np.zeros((len(here), 1)), axis=1), edges, 1) / WEIGHT_SCALE
    return x


def block_mask(features: np.ndarray) -> np.ndarray:
    """The neighbor mask of feature vectors, False at zero padding.

    A real block's travel time is positive, and a padding block's is 0.
    """
    return np.asarray(features)[..., HEAD_SIZE + 2::BLOCK_SIZE] > 0.0


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

    def scenario_ids(self) -> np.ndarray:
        return self.scenario_id

    def save_jsonl(self, path: str | FilePath) -> None:
        rows = zip(*(getattr(self, key).tolist() for key in COLUMNS))
        files.write_jsonl(path, (dict(zip(COLUMNS, row)) for row in rows))

    @staticmethod
    def load_jsonl(path: str | FilePath) -> "Dataset":
        """Read a ``save_jsonl`` file with ``files.read_json``: a line off the record
        layout, labelled outside 0-4 or on padding, or off ``_block_rule``, raises a
        ValueError."""
        return Dataset.from_rows(files.read_json(path, _SAMPLE, _sample_row, lines=True))

    def split(self, val_fraction: float, seed: int):
        """Train/validation split by scenario, so no rollout leaks across.

        A positive fraction holds out at least one scenario when there are
        two or more; a fraction of 0 holds out none."""
        ids = np.unique(self.scenario_id)
        rng = np.random.default_rng(seed)
        rng.shuffle(ids)
        n_val = max(1, round(val_fraction * len(ids))) if val_fraction and len(ids) > 1 else 0
        val = np.isin(self.scenario_id, ids[:n_val])
        return self[~val], self[val]


def _sample_row(doc: dict) -> tuple:
    """One JSON-lines record as a row in ``COLUMNS`` order."""
    features, label = np.array(doc["features"], float), doc["label"]
    if not 0 <= label < N_BLOCKS:
        raise ValueError(f"label is {label}, not in 0-{N_BLOCKS - 1}")
    if not block_mask(features)[label]:
        raise ValueError(f"label {label} points at a padding block")
    return _block_rule(features), label, doc["scenario_id"], doc["t"]


def _block_rule(features: np.ndarray) -> np.ndarray:
    """``features``, or a ValueError unless its real blocks precede all-zero padding."""
    real, blocks = block_mask(features), features[HEAD_SIZE:].reshape(N_BLOCKS, BLOCK_SIZE)
    ok = np.where(np.arange(N_BLOCKS) < real.sum(), real, ~blocks.any(axis=1))
    if not ok.all():
        raise ValueError(f"block {ok.argmin()} is neither a neighbor (travel time > 0) "
                         "ahead of the padding nor all-zero padding")
    return features


def load_sample(path: str | FilePath) -> np.ndarray:
    """The ``features`` of the JSON object in ``path``, such as a dataset line, held
    to the dataset's layout and block rule; any error names the file."""
    return files.read_json(path, None, lambda doc: _block_rule(np.array(files.check_layout(
        "features", isinstance(doc, dict) and doc.get("features"), _SAMPLE["features"]), float)))


def generate_dataset(graph: CityGraph, n_scenarios: int, seed: int,
                     sigma_frac: float = dyngraph.SIGMA_FRAC) -> Dataset:
    """Oracle-labeled corpus over randomized scenarios, deterministic in the seed.

    Each scenario draws a fresh epicenter, start and chosen exit; every node
    the oracle visits emits one sample labeled with the slot of the oracle's
    move. Scenarios whose oracle rollout fails are skipped, with a warning
    that gives the reason.
    """
    scenarios = dyngraph.random_scenarios(graph, n_scenarios, seed)
    samples: list[list[tuple]] = [[] for _ in scenarios]

    def label(world, rows, here):
        going = oracle.oracle_next(world, rows, here)
        for x, i, j in zip(build_feature_vector(world, here), rows, going):
            if j >= 0:
                samples[i].append((x, j, i, world.t))
        return going

    paths = oracle.lockstep(graph, scenarios, sigma_frac, label)
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
