"""City road network and its evolution under an earthquake and exit-point traffic.

The map lives in the unit square. Edge weights are travel times in minutes.
A world is made already hit: ``initial_state`` multiplies the weights around
the epicenter once. After that, ``advance`` is the only world step. It grows
weights with two mechanisms: the quake's damage circle (slowly expanding) and
traffic circles around the exit nodes (expanding from radius zero). Each
mechanism is one band lookup: an edge's distance to the circle's center picks
a band of the circle, and the band picks a factor and a saturation cap. The
module owns the scenario seed rule (``random_scenarios``), the degree cap
``MAX_DEGREE`` of ``synth_city`` and of the feature rows, and the layouts of
the graph and scenario files, which ``files.read_json`` holds them to.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path as FilePath

import numpy as np

from . import files

# Damage radius at step t; the quake area starts at half the map and creeps outward.
EPI_RADIUS_BASE = 0.5
EPI_RADIUS_RATE = 0.0002
# Exit traffic circles start at a point and expand faster.
EXIT_RADIUS_RATE = 0.00075

# Ongoing mechanisms: inclusive band edges (fractions of the radius),
# per-band growth rates (inside sqrt(rate*t + 1)) and saturation caps.
QUAKE_BANDS = (0.3, 0.75, 1.0)
QUAKE_RATES = (0.003, 0.002, 0.001)
TRAFFIC_BANDS = (0.5, 0.75, 1.0)
TRAFFIC_RATES = (0.03, 0.02, 0.01)
BAND_CAPS = (5.0, 4.0, 3.0)

# Initial static quake multipliers over the same three quake bands.
INITIAL_FACTORS = (5.0, 2.0, 1.3)

# The growth tables with the outside band appended: its rate of 0 gives
# factor 1, and it has no cap, so weights outside the circle stay exact.
_QUAKE_RATES = np.append(QUAKE_RATES, 0.0)
_TRAFFIC_RATES = np.append(TRAFFIC_RATES, 0.0)
_CAPS = np.append(BAND_CAPS, np.inf)

SPEED_CHOICES_KMH = (30.0, 40.0, 50.0)
# Defaults: the spread of the base travel times as a share of the nominal times,
# and synth_city's map side in meters and share of edges it tries to drop.
SIGMA_FRAC, SPAN_M, DELETE_FRAC = 0.1, 2000.0, 0.15
MAX_DEGREE = 5  # synth_city's degree cap, and the feature rows' neighbour blocks

# One exit sits nearest to each of these map border anchors.
EXIT_ANCHORS = ((0.0, 0.0), (1.0, 0.0), (0.5, 1.0))


class GraphError(ValueError):
    """Malformed graph or bad construction arguments."""


@dataclass(frozen=True)
class CityGraph:
    """Immutable road network: node coordinates plus undirected edges.

    A node is its position in ``xy``, and ``edges`` holds those positions
    with u < v.

    ``arcs`` is the one adjacency: ``arcs[:, j, u]`` is u's arc ``(head, edge
    id)`` in slot j, by ascending head, in a (2, max degree, n) array. A move
    out of u is a slot. Past its degree a node's column is padded with arcs
    to a dummy node ``n_nodes`` over a phantom edge ``n_edges`` that callers
    weigh as infinite. ``betweenness`` and ``feature_tables`` are built on
    first use and kept.
    """

    xy: np.ndarray         # (n_nodes, 2) float, unit square
    edges: np.ndarray      # (n_edges, 2) int node indices, u < v
    length_m: np.ndarray   # (n_edges,) float
    speed_kmh: np.ndarray  # (n_edges,) float
    arcs: np.ndarray = field(init=False, repr=False, compare=False)
    feature_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        xy = np.asarray(self.xy, float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise GraphError("node coordinates must be an (n, 2) array")
        if not np.isfinite(xy).all():
            raise GraphError("node coordinates must be finite")
        if xy.size and (xy.min() < -1e-9 or xy.max() > 1 + 1e-9):
            raise GraphError("node coordinates must lie in the unit square")
        edges = np.asarray(self.edges, int).reshape(-1, 2)
        outside = edges[(edges < 0) | (edges >= len(xy))]
        if outside.size:
            raise GraphError(f"edge end {outside.max()} is not a node 0-{len(xy) - 1}")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise GraphError("self-loops are not allowed")
        if np.any(edges[:, 0] > edges[:, 1]):
            raise GraphError("edges must be stored with u < v")
        if len({(int(u), int(v)) for u, v in edges}) != len(edges):
            raise GraphError("duplicate undirected edges")
        for name in ("length_m", "speed_kmh"):
            values = np.asarray(getattr(self, name), float)
            if values.shape != (len(edges),):
                raise GraphError(f"{name} must hold one value per edge")
            if not (np.isfinite(values) & (values > 0)).all():
                raise GraphError(f"{name} must be finite and positive")
            object.__setattr__(self, name, values)
        # both directions of every edge by tail, then head: an arc's rank
        # within its tail is its slot
        tails, heads = np.concatenate([edges, edges[:, ::-1]]).T
        order = np.lexsort((heads, tails))
        tails, heads, ids = tails[order], heads[order], np.tile(np.arange(len(edges)), 2)[order]
        degree = np.bincount(tails, minlength=len(xy))
        slots = np.arange(len(tails)) - np.repeat(np.cumsum(degree) - degree, degree)
        arcs = np.empty((2, degree.max(initial=0), len(xy)), int)
        arcs[0], arcs[1] = len(xy), len(edges)
        arcs[:, slots, tails] = heads, ids
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "xy", xy)

    @property
    def n_nodes(self) -> int:
        return len(self.xy)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, node: int) -> int:
        return int((self.arcs[1, :, node] < self.n_edges).sum())

    def nominal_minutes(self) -> np.ndarray:
        """Noise-free travel times: length over speed limit, in minutes."""
        return (self.length_m / 1000.0) / self.speed_kmh * 60.0

    @functools.cached_property
    def betweenness(self) -> np.ndarray:
        """``oracle.edge_betweenness`` of the undamaged graph, read-only."""
        from . import oracle
        betweenness = oracle.edge_betweenness(self)
        betweenness.setflags(write=False)
        return betweenness


@dataclass(frozen=True)
class Scenario:
    """One evacuation instance: epicenter, start node, exits and the chosen one."""

    epicenter: tuple[float, float]
    start: int
    exits: tuple[int, ...]
    chosen_exit: int
    rng_seed: int
    max_steps: int

    def __post_init__(self):
        if len(self.epicenter) != 2 or not all(0.0 <= c <= 1.0 for c in self.epicenter):
            raise GraphError("epicenter must be a point in the unit square")
        if not self.exits:
            raise GraphError("at least one exit is required")
        if len(set(self.exits)) < len(self.exits):
            raise GraphError(f"exits {list(self.exits)} repeat a node")
        if self.chosen_exit not in self.exits:
            raise GraphError("chosen exit must be one of the exits")
        if self.start in self.exits:
            raise GraphError("start node must not be an exit")
        if self.max_steps < 1:
            raise GraphError("max_steps must be positive")
        object.__setattr__(self, "exits", tuple(int(e) for e in self.exits))
        object.__setattr__(self, "epicenter", tuple(map(float, self.epicenter)))


def damage_radius(t: int | float) -> float:
    """Radius of the quake's area of effect at step t."""
    return EPI_RADIUS_BASE + math.sqrt(EPI_RADIUS_RATE * t)


def exit_radius(t: int | float) -> float:
    """Radius of one exit's traffic circle at step t."""
    return math.sqrt(EXIT_RADIUS_RATE * t)


def edge_centers(graph: CityGraph) -> np.ndarray:
    """Edge midpoints, used as the edges' positions for all distance bands."""
    return (graph.xy[graph.edges[:, 0]] + graph.xy[graph.edges[:, 1]]) / 2.0


def _on_graph(graph: CityGraph, scenario: Scenario) -> Scenario:
    """``scenario`` if its start and exits are nodes of ``graph``, else GraphError."""
    if not all(0 <= v < graph.n_nodes for v in (scenario.start, *scenario.exits)):
        raise GraphError(f"scenario start {scenario.start} and exits {list(scenario.exits)} "
                         f"must be node indices 0-{graph.n_nodes - 1} of the graph")
    return scenario


class DynamicState:
    """A world of S scenario rows on one graph: (S, E) edge weights, one step counter.

    Row k belongs to ``scenarios[k]``; ``keep`` drops rows whose rollout ended.
    ``weights`` are the rows' base travel times after the initial hit, which
    the constructor applies. Weights only ever grow: ongoing growth saturates
    at the band caps, and a weight that the hit pushed above a cap is left
    untouched. The arithmetic is element-wise, so a row evolves exactly as it
    would in a world of its own.
    """

    def __init__(self, graph: CityGraph, scenarios, base_weights):
        scenarios = tuple(_on_graph(graph, sc) for sc in scenarios)
        shape = (len(scenarios), graph.n_edges)
        self.graph = graph
        self.scenarios = scenarios
        self.weights = np.array(base_weights, float).reshape(shape)
        self.t = 0
        centers = edge_centers(graph)
        epicenters = np.array([sc.epicenter for sc in scenarios], float)
        self._d_epi = np.linalg.norm(centers - epicenters.reshape(-1, 1, 2), axis=-1)
        # one (S, E) slice per exit position; a row with fewer exits pads with
        # inf, which lies outside every circle
        n_slots = max((len(sc.exits) for sc in scenarios), default=0)
        self._d_exit = np.full((n_slots, *shape), np.inf)
        for slot in range(n_slots):
            rows = [k for k, sc in enumerate(scenarios) if len(sc.exits) > slot]
            exits = graph.xy[[scenarios[k].exits[slot] for k in rows]]
            self._d_exit[slot, rows] = np.linalg.norm(centers - exits[:, None], axis=-1)
        # the one-off static hit is uncapped
        _grow(self.weights, self._d_epi, damage_radius(0), QUAKE_BANDS,
              np.append(INITIAL_FACTORS, 1.0), np.full(len(_CAPS), np.inf))

    def keep(self, rows: list[bool]) -> None:
        """Drop the rows that the boolean mask ``rows`` leaves out."""
        self.scenarios = tuple(sc for sc, k in zip(self.scenarios, rows) if k)
        self.weights, self._d_epi = self.weights[rows], self._d_epi[rows]
        self._d_exit = self._d_exit[:, rows]


def initial_state(graph: CityGraph, scenarios, sigma_frac: float = SIGMA_FRAC) -> DynamicState:
    """World at t=0, after the initial hit, with one row per scenario.

    Each row's Gaussian base weights are sampled once here (seeded by its
    scenario) and stay fixed for the whole rollout, so oracle labels are stable.
    """
    if not (math.isfinite(sigma_frac) and sigma_frac >= 0.0):
        raise GraphError(f"sigma_frac must be finite and non-negative, got {sigma_frac}")
    scenarios = tuple(scenarios)
    nominal = graph.nominal_minutes()
    draws = [np.random.default_rng(sc.rng_seed).normal(nominal, sigma_frac * nominal)
             for sc in scenarios]  # sigma_frac 0 draws exactly the nominal times
    return DynamicState(graph, scenarios, [np.maximum(d, 0.1 * nominal) for d in draws])


def _grow(weights: np.ndarray, dist: np.ndarray, radius: float, bands: tuple,
          factors: np.ndarray, caps: np.ndarray) -> None:
    """Multiply each weight by its band's factor, saturating at the band's cap.

    An edge's band is the number of band edges ``bands * radius`` below its
    distance: band i < 3 holds ``(bands[i-1], bands[i]] * radius``, and band
    3 lies outside the circle. ``factors`` and ``caps`` hold one entry per
    band, the outside band's last (factor 1, cap inf, so those weights stay
    exact). A weight already above its cap is left alone, never pulled down.
    """
    band = np.less.outer(np.multiply(bands, radius), dist).sum(axis=0)
    grown, cap = factors[band], caps[band]
    np.minimum(np.multiply(weights, grown, out=grown), cap, out=grown)
    np.copyto(weights, grown, where=weights <= cap)


def advance(state: DynamicState) -> DynamicState:
    """One world step for every row: quake growth, then each exit's traffic, then t += 1.

    The caller moves each row one node between calls. Every row steps,
    whatever its scenario's ``max_steps``: ``oracle.lockstep`` ends a
    rollout on its budget.
    """
    t = state.t
    _grow(state.weights, state._d_epi, damage_radius(t), QUAKE_BANDS,
          np.sqrt(_QUAKE_RATES * t + 1.0), _CAPS)
    traffic = np.sqrt(_TRAFFIC_RATES * t + 1.0)
    for dist in state._d_exit:
        _grow(state.weights, dist, exit_radius(t), TRAFFIC_BANDS, traffic, _CAPS)
    state.t += 1
    return state


# ---------------------------------------------------------------------------
# Synthetic city generation


def _joined(adj: list[set], u: int, v: int) -> bool:
    """Whether a breadth-first search from u reaches v over the neighbour sets ``adj``."""
    seen, frontier = {u}, {u}
    while frontier and v not in seen:
        frontier = {w for x in frontier for w in adj[x]} - seen
        seen |= frontier
    return v in seen


def synth_city(n_rows: int, n_cols: int, seed: int, span_m: float = SPAN_M,
               delete_frac: float = DELETE_FRAC) -> CityGraph:
    """Random grid-with-diagonals city in the unit square.

    Jittered grid nodes; rook edges, node by node in row-major order, the edge
    right before the edge down; then one diagonal per cell, its direction a
    coin flip. A random thinning tries to drop each edge with probability
    ``delete_frac``, and a clamp then drops the longest edges of the node of
    largest degree until no node has more than ``MAX_DEGREE`` or none of its
    edges can go. An edge goes only if the city stays connected.
    Deterministic in the seed. ``span_m`` maps the unit square to meters.
    """
    if n_rows < 2 or n_cols < 2:
        raise GraphError("need at least a 2x2 grid")
    if not 0.0 <= delete_frac <= 1.0:
        raise GraphError(f"delete_frac must be in [0, 1], got {delete_frac}")
    if not (math.isfinite(span_m) and span_m > 0.0):
        raise GraphError(f"span_m must be finite and positive, got {span_m}")
    rng = np.random.default_rng(seed)
    n = n_rows * n_cols

    gx = np.repeat(np.arange(n_rows), n_cols) / (n_rows - 1)
    gy = np.tile(np.arange(n_cols), n_rows) / (n_cols - 1)
    jitter = 0.25 * min(1.0 / (n_rows - 1), 1.0 / (n_cols - 1))
    xy = np.clip(np.stack([gx, gy], axis=1) + rng.uniform(-jitter, jitter, (n, 2)), 0.0, 1.0)

    node = np.arange(n)
    rook = np.stack([np.stack([node, node + 1], 1), np.stack([node, node + n_cols], 1)], 1)
    rook = rook[np.stack([node % n_cols < n_cols - 1, node < n - n_cols], 1)]
    cell = node.reshape(n_rows, n_cols)[:-1, :-1].ravel()
    falling = (rng.random(len(cell)) < 0.5)[:, None]
    diagonal = np.where(falling, np.stack([cell, cell + n_cols + 1], 1),
                        np.stack([cell + 1, cell + n_cols], 1))
    edges = np.concatenate([rook, diagonal])

    # The full grid is connected and no drop disconnects it, so before each
    # drop the city is connected, and it stays so without edge u-v exactly
    # when u still reaches v.
    adj = [set() for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    keep = np.ones(len(edges), bool)

    def drop(i) -> bool:
        u, v = edges[i]
        adj[u].remove(v)
        adj[v].remove(u)
        if _joined(adj, u, v):
            keep[i] = False
            return True
        adj[u].add(v)
        adj[v].add(u)
        return False

    # the k-th draw decides whether to try the k-th edge of the permutation
    order = rng.permutation(len(edges))
    for i in order[rng.random(len(edges)) < delete_frac]:
        drop(i)

    # Clamp degrees at the first node of largest degree: drop its first kept
    # edge that can go, longest (the diagonals) first, ties in edge order.
    while True:
        degree = list(map(len, adj))
        hot = degree.index(max(degree))
        if degree[hot] <= MAX_DEGREE:
            break
        incident = np.flatnonzero(keep & (edges == hot).any(axis=1))
        longest_first = sorted(incident, key=lambda i: -np.linalg.norm(
            xy[edges[i, 0]] - xy[edges[i, 1]]))
        if not any(drop(i) for i in longest_first):
            break

    edges = edges[keep]
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    length = np.linalg.norm(xy[edges[:, 0]] - xy[edges[:, 1]], axis=1) * span_m
    speed = rng.choice(SPEED_CHOICES_KMH, size=len(edges))
    return CityGraph(xy=xy, edges=edges, length_m=length, speed_kmh=speed)


def pick_exits(graph: CityGraph) -> tuple[int, ...]:
    """Deterministic exit choice: nodes nearest to spread-out map border anchors."""
    exits: list[int] = []
    for ax, ay in EXIT_ANCHORS:
        d = np.linalg.norm(graph.xy - np.array([ax, ay]), axis=1)
        for i in np.argsort(d):
            if int(i) not in exits:
                exits.append(int(i))
                break
    return tuple(exits)


def _scenario_nodes(graph: CityGraph) -> tuple[tuple[int, ...], list[int]]:
    """The ``pick_exits`` nodes and the start candidates: every other node."""
    exits = pick_exits(graph)
    candidates = [i for i in range(graph.n_nodes) if i not in exits]
    if not candidates:
        raise GraphError(f"no scenario start: every node of the graph is an exit {list(exits)}")
    return exits, candidates


def _draw_scenario(graph: CityGraph, exits, candidates, rng: np.random.Generator) -> Scenario:
    epicenter = (float(rng.uniform()), float(rng.uniform()))
    start = int(rng.choice(candidates))
    chosen = int(rng.choice(list(exits)))
    seed = int(rng.integers(0, 2**32))
    return Scenario(epicenter=epicenter, start=start, exits=exits,
                    chosen_exit=chosen, rng_seed=seed, max_steps=2 * graph.n_nodes)


def random_scenario(graph: CityGraph, rng: np.random.Generator) -> Scenario:
    """Random epicenter, start and chosen exit among the ``pick_exits`` nodes;
    the step budget is 2x node count."""
    return _draw_scenario(graph, *_scenario_nodes(graph), rng)


def random_scenarios(graph: CityGraph, n: int, seed: int) -> list[Scenario]:
    """The one scenario seed rule: scenario i is ``random_scenario`` drawn from
    ``SeedSequence([seed, i])``, so it does not depend on ``n``."""
    if n < 1:
        raise ValueError("n_scenarios must be at least 1")
    nodes = _scenario_nodes(graph)  # the same for every scenario of the graph
    return [_draw_scenario(graph, *nodes, np.random.default_rng(np.random.SeedSequence([seed, i])))
            for i in range(n)]


# ---------------------------------------------------------------------------
# Graph and scenario files and their layouts

_GRAPH_FILE = {"nodes": [{"id": "a non-negative integer", "x": "a finite number",
                          "y": "a finite number"}],
               "edges": [{"u": "a non-negative integer", "v": "a non-negative integer",
                          "length_m": "a finite number", "speed_kmh": "a finite number"}]}
_SCENARIO_FILE = {"epicenter": ["a finite number"], "start": "an integer",
                  "exits": ["an integer"], "chosen_exit": "an integer",
                  "rng_seed": "a non-negative integer", "max_steps": "a non-negative integer"}


def save_graph(graph: CityGraph, path: str | FilePath) -> None:
    """Write the graph as JSON; a node's ``id`` is its position in ``nodes``."""
    files.write_json(path, {
        "nodes": [{"id": i, "x": float(x), "y": float(y)} for i, (x, y) in enumerate(graph.xy)],
        "edges": [
            {"u": int(u), "v": int(v), "length_m": float(l), "speed_kmh": float(s)}
            for (u, v), l, s in zip(graph.edges, graph.length_m, graph.speed_kmh)
        ],
    })


def _graph_from_doc(doc: dict) -> CityGraph:
    for k, node in enumerate(doc["nodes"]):
        if node["id"] != k:
            raise GraphError(f"nodes[{k}].id is {node['id']}, not its position {k}")
    edges = doc["edges"]
    return CityGraph(xy=np.array([[n["x"], n["y"]] for n in doc["nodes"]], float),
                     edges=np.array([sorted((e["u"], e["v"])) for e in edges], int),
                     length_m=np.array([e["length_m"] for e in edges], float),
                     speed_kmh=np.array([e["speed_kmh"] for e in edges], float))


def load_graph(path: str | FilePath) -> CityGraph:
    """Read a ``save_graph`` file with ``files.read_json``: a layout error, a node id that is
    not its position or a ``CityGraph`` error raises GraphError naming the file."""
    return files.read_json(path, _GRAPH_FILE, _graph_from_doc, GraphError)


def save_scenario(scenario: Scenario, path: str | FilePath) -> None:
    """Write the scenario's fields as one JSON object, in field order."""
    files.write_json(path, asdict(scenario))


def load_scenario(path: str | FilePath, graph: CityGraph) -> Scenario:
    """Read a ``save_scenario`` file of ``graph`` with ``files.read_json``: a layout or
    ``Scenario`` error, or a start or exit that is not a node of ``graph``, raises
    GraphError naming the file."""
    return files.read_json(path, _SCENARIO_FILE,
                           lambda doc: _on_graph(graph, Scenario(**doc)), GraphError)
