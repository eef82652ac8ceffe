"""Independent test oracles: an adjacency built from the edge list, a heap
Dijkstra with the scalar next-slot rule, brute-force path search, the
list-based city generator, a pure-Python replay of the weight dynamics, a
scalar feature builder, a dense-matrix circuit simulator, parameter-shift
probability gradients, a layer-by-layer kernel with the joint-state tail,
an array-by-array Adam update and a step-by-step replay of training. These
deliberately avoid the package's own fast paths and its arc table."""
from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from quakeroute import features, hybrid, neural, qsim
from quakeroute.dyngraph import SPEED_CHOICES_KMH, CityGraph, GraphError
from quakeroute.qsim import Circuit, CNot, ModelKernel


# ---------------------------------------------------------------------------
# Sorted adjacency, heap Dijkstra and the scalar next-slot rule


def sorted_adjacency(graph: CityGraph) -> list[list[tuple[int, int]]]:
    """Each node's arcs ``(head, edge id)`` by ascending head, from ``graph.edges``:
    a move out of u by slot j takes ``sorted_adjacency(graph)[u][j]``."""
    adjacency = [[] for _ in range(graph.n_nodes)]
    for e, (u, v) in enumerate(graph.edges.tolist()):
        adjacency[u].append((v, e))
        adjacency[v].append((u, e))
    return [sorted(arcs) for arcs in adjacency]


def heap_distances(graph: CityGraph, weights, source: int) -> np.ndarray:
    """Single-source shortest distances over frozen weights (binary heap)."""
    adjacency = sorted_adjacency(graph)
    dist = np.full(graph.n_nodes, np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    done = np.zeros(graph.n_nodes, bool)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, e in adjacency[u]:
            nd = d + weights[e]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def next_slot(graph: CityGraph, weights, dist_to_goal, u: int) -> int:
    """Slot of u's smallest-id neighbor on a shortest path to the goal, one arc
    at a time; -1 if the goal is unreachable from u."""
    du = dist_to_goal[u]
    if not math.isfinite(du):
        return -1
    tol = 1e-12 * du
    for j, (v, e) in enumerate(sorted_adjacency(graph)[u]):
        if weights[e] + dist_to_goal[v] <= du + tol:
            return j
    raise AssertionError(f"no shortest-path step out of node {u}")


def heap_path(graph: CityGraph, weights, start: int, goal: int):
    """(nodes, edge costs) of the heap-distance shortest path by ``next_slot``,
    or None if the goal is unreachable."""
    dist = heap_distances(graph, weights, goal)
    if not math.isfinite(dist[start]):
        return None
    adjacency, nodes, costs = sorted_adjacency(graph), [start], []
    while nodes[-1] != goal:
        v, e = adjacency[nodes[-1]][next_slot(graph, weights, dist, nodes[-1])]
        nodes.append(v)
        costs.append(float(weights[e]))
    return nodes, costs


# ---------------------------------------------------------------------------
# Exhaustive shortest-path search


def all_simple_paths(adj: dict, start, goal):
    stack = [(start, [start])]
    while stack:
        node, path = stack.pop()
        if node == goal:
            yield path
            continue
        for nbr in adj[node]:
            if nbr not in path:
                stack.append((nbr, path + [nbr]))


def brute_force_shortest(graph: CityGraph, weights, start: int, goal: int):
    """Minimum-cost simple path by exhaustive enumeration.

    Costs accumulate left to right, matching how the path cost is summed
    elsewhere, so agreement can be asserted exactly. Ties break toward the
    lexicographically smaller node sequence.
    """
    adj = {u: [v for v, _ in arcs] for u, arcs in enumerate(sorted_adjacency(graph))}
    ew = {}
    for e, (u, v) in enumerate(graph.edges):
        ew[(int(u), int(v))] = float(weights[e])
        ew[(int(v), int(u))] = float(weights[e])
    best = None
    for path in all_simple_paths(adj, start, goal):
        cost = 0.0
        for a, b in zip(path, path[1:]):
            cost = cost + ew[(a, b)]
        key = (cost, path)
        if best is None or key < best:
            best = key
    return best  # (cost, path) or None


def brute_force_edge_betweenness(graph: CityGraph, weights) -> np.ndarray:
    """Edge betweenness by enumerating every ordered pair's shortest paths.

    All cost-minimal simple paths of a pair share the credit equally.
    """
    adj = {u: [v for v, _ in arcs] for u, arcs in enumerate(sorted_adjacency(graph))}
    ew, eid = {}, {}
    for e, (u, v) in enumerate(graph.edges):
        ew[(int(u), int(v))] = ew[(int(v), int(u))] = float(weights[e])
        eid[(int(u), int(v))] = eid[(int(v), int(u))] = e
    n = graph.n_nodes
    cb = np.zeros(graph.n_edges)
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths = list(all_simple_paths(adj, s, t))
            if not paths:
                continue
            costs = [sum(ew[(a, b)] for a, b in zip(p, p[1:])) for p in paths]
            lo = min(costs)
            shortest = [p for p, c in zip(paths, costs) if c <= lo + 1e-12 * lo]
            for p in shortest:
                for a, b in zip(p, p[1:]):
                    cb[eid[(a, b)]] += 1.0 / len(shortest)
    return cb / (n * (n - 1))


# ---------------------------------------------------------------------------
# List-based city generator


def _connected(n_nodes: int, edges: list[tuple[int, int]]) -> bool:
    if n_nodes == 0:
        return True
    adjacency = [[] for _ in range(n_nodes)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n_nodes


def reference_synth_city(n_rows: int, n_cols: int, seed: int, span_m: float = 2000.0,
                         delete_frac: float = 0.15) -> CityGraph:
    """``dyngraph.synth_city`` on edge tuples, one scalar draw at a time: every
    trial drop copies the kept edge list and searches the whole city, and every
    drop recounts the degrees."""
    if n_rows < 2 or n_cols < 2:
        raise GraphError("need at least a 2x2 grid")
    if not 0.0 <= delete_frac <= 1.0:
        raise GraphError(f"delete_frac must be in [0, 1], got {delete_frac}")
    rng = np.random.default_rng(seed)
    n = n_rows * n_cols

    def nid(r, c):
        return r * n_cols + c

    gx = np.repeat(np.arange(n_rows), n_cols) / (n_rows - 1)
    gy = np.tile(np.arange(n_cols), n_rows) / (n_cols - 1)
    jitter = 0.25 * min(1.0 / (n_rows - 1), 1.0 / (n_cols - 1))
    xy = np.stack([gx, gy], axis=1) + rng.uniform(-jitter, jitter, (n, 2))
    xy = np.clip(xy, 0.0, 1.0)

    edges: list[tuple[int, int]] = []
    for r in range(n_rows):
        for c in range(n_cols):
            if c + 1 < n_cols:
                edges.append((nid(r, c), nid(r, c + 1)))
            if r + 1 < n_rows:
                edges.append((nid(r, c), nid(r + 1, c)))
    for r in range(n_rows - 1):
        for c in range(n_cols - 1):
            if rng.random() < 0.5:
                edges.append((nid(r, c), nid(r + 1, c + 1)))
            else:
                edges.append((nid(r, c + 1), nid(r + 1, c)))

    # Thin edges at random while keeping the city connected.
    order = rng.permutation(len(edges))
    keep = set(range(len(edges)))
    for i in order:
        if rng.random() >= delete_frac:
            continue
        trial = [edges[j] for j in keep if j != i]
        if _connected(n, trial):
            keep.discard(int(i))
    edges = [edges[j] for j in sorted(keep)]

    # Clamp degrees to 5, preferring to drop diagonals (the longer edges).
    def degrees(es):
        d = np.zeros(n, int)
        for u, v in es:
            d[u] += 1
            d[v] += 1
        return d

    deg = degrees(edges)
    changed = True
    while changed and deg.max() > 5:
        changed = False
        hot = int(np.argmax(deg))
        incident = [e for e in edges if hot in e]
        incident.sort(key=lambda e: -np.linalg.norm(xy[e[0]] - xy[e[1]]))
        for e in incident:
            trial = [x for x in edges if x != e]
            if _connected(n, trial):
                edges = trial
                deg = degrees(edges)
                changed = True
                break

    edges_arr = np.array([(min(u, v), max(u, v)) for u, v in edges], int)
    order = np.lexsort((edges_arr[:, 1], edges_arr[:, 0]))
    edges_arr = edges_arr[order]
    length = np.linalg.norm(xy[edges_arr[:, 0]] - xy[edges_arr[:, 1]], axis=1) * span_m
    speed = rng.choice(SPEED_CHOICES_KMH, size=len(edges_arr))
    return CityGraph(xy=xy, edges=edges_arr, length_m=length, speed_kmh=speed)


# ---------------------------------------------------------------------------
# Pure-Python environment replay


def base_weights(graph: CityGraph, scenario, sigma_frac: float) -> np.ndarray:
    """A scenario's travel times before the initial hit, drawn again from its seed."""
    nominal = graph.nominal_minutes()
    draw = np.random.default_rng(scenario.rng_seed).normal(nominal, sigma_frac * nominal)
    return np.maximum(draw, 0.1 * nominal)


def replay_trajectory(graph: CityGraph, epicenter, exits, base_weights,
                      n_steps: int):
    """Step-by-step reimplementation of the weight dynamics with plain loops.

    Returns the list of weight dicts after the initial hit and after each of
    the ``n_steps`` world steps.
    """
    centers = []
    for (u, v) in graph.edges:
        cx = (graph.xy[u][0] + graph.xy[v][0]) / 2.0
        cy = (graph.xy[u][1] + graph.xy[v][1]) / 2.0
        centers.append((cx, cy))
    d_epi = [math.hypot(cx - epicenter[0], cy - epicenter[1]) for cx, cy in centers]
    d_exit = {
        e: [math.hypot(cx - graph.xy[e][0], cy - graph.xy[e][1])
            for cx, cy in centers]
        for e in exits
    }
    w = [float(x) for x in base_weights]

    # initial hit at t=0, damage radius 0.5
    r = 0.5 + math.sqrt(0.0002 * 0)
    for i in range(len(w)):
        d = d_epi[i]
        if d <= 0.3 * r:
            w[i] *= 5.0
        elif d <= 0.75 * r:
            w[i] *= 2.0
        elif d <= r:
            w[i] *= 1.3
    out = [list(w)]

    def grow(i, factor, cap):
        if w[i] > cap:
            return
        w[i] = min(w[i] * factor, cap)

    for t in range(n_steps):
        r = 0.5 + math.sqrt(0.0002 * t)
        for i in range(len(w)):
            d = d_epi[i]
            if d <= 0.3 * r:
                grow(i, math.sqrt(0.003 * t + 1.0), 5.0)
            elif d <= 0.75 * r:
                grow(i, math.sqrt(0.002 * t + 1.0), 4.0)
            elif d <= r:
                grow(i, math.sqrt(0.001 * t + 1.0), 3.0)
        re = math.sqrt(0.00075 * t)
        for e in exits:
            for i in range(len(w)):
                d = d_exit[e][i]
                if d <= 0.5 * re:
                    grow(i, math.sqrt(0.03 * t + 1.0), 5.0)
                elif d <= 0.75 * re:
                    grow(i, math.sqrt(0.02 * t + 1.0), 4.0)
                elif d <= re:
                    grow(i, math.sqrt(0.01 * t + 1.0), 3.0)
        out.append(list(w))
    return out


# ---------------------------------------------------------------------------
# Scalar feature builder


def euclid(p, q) -> float:
    return math.hypot(q[0] - p[0], q[1] - p[1])


def direction_cosine(current, neighbor, target) -> float:
    """Cosine between the step direction and the direction to the target;
    a zero-length direction scores 0."""
    ax, ay = neighbor[0] - current[0], neighbor[1] - current[1]
    bx, by = target[0] - current[0], target[1] - current[1]
    na = math.hypot(ax, ay)
    nb = math.hypot(bx, by)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return (ax * bx + ay * by) / (na * nb)


def feature_row(state, row: int, current: int) -> np.ndarray:
    """The 36-value input of world row ``row`` at its decision node ``current``,
    value by value with scalar arithmetic."""
    graph = state.graph
    scenario = state.scenarios[row]
    weights = state.weights[row]
    if graph.arcs.shape[1] > features.N_BLOCKS:
        raise GraphError("a node has degree over five")
    dest_xy = graph.xy[scenario.chosen_exit]
    cur_xy = graph.xy[current]
    feats = np.zeros(features.N_FEATURES)
    feats[0:2] = scenario.epicenter
    feats[2:4] = cur_xy
    feats[4:6] = dest_xy
    for j, (v, e) in enumerate(sorted_adjacency(graph)[current]):
        base = features.HEAD_SIZE + j * features.BLOCK_SIZE
        feats[base:base + 2] = graph.xy[v]
        feats[base + 2] = weights[e] / features.WEIGHT_SCALE
        feats[base + 3] = graph.betweenness[e]
        feats[base + 4] = euclid(graph.xy[v], dest_xy)
        feats[base + 5] = direction_cosine(cur_xy, graph.xy[v], dest_xy)
    return feats


# ---------------------------------------------------------------------------
# Dense-matrix circuit oracle


def _rot_matrix(axis: str, theta: float) -> np.ndarray:
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    if axis == "x":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "y":
        return np.array([[c, -s], [s, c]])
    return np.array([[c - 1j * s, 0], [0, c + 1j * s]])


def _kron_chain(ops) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def gate_matrices(circuit: Circuit, params, features=None):
    """Each gate's dense 2^n x 2^n matrix in turn. The trainable rotations are
    numbered here, in gate order: the k-th turns by params[k]."""
    n, eye, k = circuit.n_qubits, np.eye(2), 0
    for gate in circuit.gates:
        if isinstance(gate, CNot):
            p0 = np.diag([1.0, 0.0])
            p1 = np.diag([0.0, 1.0])
            x = np.array([[0.0, 1.0], [1.0, 0.0]])
            ops0 = [eye] * n
            ops0[gate.control] = p0
            ops1 = [eye] * n
            ops1[gate.control] = p1
            ops1[gate.target] = x
            yield _kron_chain(ops0) + _kron_chain(ops1)
            continue
        if gate.feature is None:
            theta = params[k]
            k += 1
        else:
            theta = gate.scale * features[gate.feature]
        ops = [eye] * n
        ops[gate.qubit] = _rot_matrix(gate.axis, float(theta))
        yield _kron_chain(ops)


def circuit_unitary(circuit: Circuit, params, features=None) -> np.ndarray:
    """Full 2^n x 2^n unitary assembled gate by gate via Kronecker products."""
    u = np.eye(1 << circuit.n_qubits, dtype=complex)
    for m in gate_matrices(circuit, params, features):
        u = m @ u
    return u


def oracle_state(circuit: Circuit, params, features=None) -> np.ndarray:
    """|0...0> carried through the dense matrix of each gate in turn."""
    ket = np.zeros(1 << circuit.n_qubits, dtype=complex)
    ket[0] = 1.0
    for m in gate_matrices(circuit, params, features):
        ket = m @ ket
    return ket


def oracle_expectations(circuit: Circuit, params, features=None) -> np.ndarray:
    state = oracle_state(circuit, params, features)
    probs = np.abs(state) ** 2
    n = circuit.n_qubits
    out = []
    for q in circuit.measured:
        signs = 1.0 - 2.0 * ((np.arange(1 << n) >> (n - 1 - q)) & 1)
        out.append(float(probs @ signs))
    return np.array(out)


def shift_prob_grad(circuit: Circuit, params, features=None) -> np.ndarray:
    """(n_params, batch..., 2**n) basis-state probability gradients by the
    two-term shift rule on ``qsim.run``: rows j and P + j move parameter j by
    +pi/2 and -pi/2, and half their difference is its derivative."""
    params = np.asarray(params, float)
    p, batch_ndim = circuit.n_params, max(params.ndim, np.ndim(features)) - 1
    shifts = np.pi / 2 * np.eye(p)
    shifts = np.stack([shifts, -shifts]).reshape((2, p) + (1,) * batch_ndim + (p,))
    plus, minus = qsim.probabilities(qsim.run(circuit, params + shifts, features))
    return (plus - minus) / 2.0


# ---------------------------------------------------------------------------
# Layer-by-layer kernel


def cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    """The row gather of one CNOT on n qubits: state[perm] applies it."""
    rows = np.arange(1 << n)
    bits = (rows >> (n - 1 - control)) & 1
    return np.where(bits == 1, rows ^ (1 << (n - 1 - target)), rows)


class BlockwiseSection:
    """A kernel section built gate layer by gate layer, block by block.

    A run of Z encodings is a phase vector: each qubit's (exp(-i/2 angle),
    exp(i/2 angle)) pair gathered by the bits of every basis state, then
    multiplied over the qubits. In a block, consecutive RX on distinct qubits,
    closed by a CNOT, form a layer, one unitary
    R[i, j] = prod_q (cos(t_q/2) if bit q of i^j is 0, else -i sin(t_q/2)),
    and each block is the product of its layers and CNOT permutations in turn.
    The pullback carries each block's Y through its layers, Y -> R Y R^+, and
    reads d/dt_q = Im tr(X_q Y) right after each layer."""

    def __init__(self, gates, first: int, k: int, start: int):
        self.k, self.dim = k, 1 << k
        self.runs = []  # (is encoding, index of its phase vector or block)
        self.steps = []  # per block, in order: a layer's index or a CNOT run's permutation
        enc, layers = [], []  # per encoding run its angle table; per layer its qubits
        for encoding, run in itertools.groupby(gates, lambda g: isinstance(g, qsim.Rot)
                                               and g.axis == "z" and g.feature is not None):
            self.runs.append((encoding, len(enc) if encoding else len(self.steps)))
            if encoding:
                enc.append(np.zeros((features.N_FEATURES, k)))
                for g in run:
                    enc[-1][g.feature, g.qubit - first] += g.scale
                continue
            steps = []
            for g in run:
                if isinstance(g, CNot):
                    perm = cnot_perm(k, g.control - first, g.target - first)
                    if steps and not isinstance(steps[-1], int):  # one permutation per CNOT run
                        perm = steps.pop()[perm]
                    steps.append(perm)
                else:
                    if not steps or not isinstance(steps[-1], int):
                        steps.append(len(layers))
                        layers.append([])
                    layers[-1].append(g.qubit - first)
            self.steps.append(steps)
        self._enc_w = np.concatenate(enc or [np.zeros((features.N_FEATURES, 0))], 1)
        rows = np.arange(self.dim)
        self._bits = (rows >> (k - 1 - np.arange(k))[:, None]) & 1
        self._xor = rows[:, None] ^ rows
        self._flips = rows ^ (1 << (k - 1 - np.arange(k)))[:, None]
        at = [(l, q) for l, layer in enumerate(layers) for q in layer]
        self._at = tuple(np.array(at, int).reshape(-1, 2).T)
        self.params = slice(start, start + len(at))
        self._n_layers = len(layers)

    def phases(self, x) -> np.ndarray:
        """(B, encoding runs, 2**k) phase vectors of the feature rows ``x``."""
        angles = (x @ self._enc_w).reshape(len(x), -1, self.k, 1)
        bit0 = np.exp(-0.5j * angles)  # each qubit's phase on |0>; |1> takes the conjugate
        pair = np.concatenate([bit0, bit0.conj()], axis=-1)
        return pair[:, :, np.arange(self.k)[:, None], self._bits].prod(axis=2)

    def compile(self, params) -> None:
        half = np.zeros((self._n_layers, self.k))
        half[self._at] = params[self.params] / 2.0
        pair = np.stack([np.cos(half), -1j * np.sin(half)], axis=-1)
        values = pair[:, np.arange(self.k)[:, None], self._bits].prod(axis=1)
        self.layers = values[:, self._xor]
        self.blocks = []
        for steps in self.steps:
            u = np.eye(self.dim, dtype=complex)
            for step in steps:
                u = self.layers[step] @ u if isinstance(step, int) else u[step]
            self.blocks.append(u)

    def run(self, state, phases):
        for encoding, j in self.runs:
            state = state * phases[:, j] if encoding else state @ self.blocks[j].T
        return state

    def pullback(self, lam, state, phases, grad) -> np.ndarray:
        reads, rows = np.zeros((self._n_layers, self.k)), np.arange(self.dim)
        for encoding, j in reversed(self.runs):
            if encoding:
                back = phases[:, j].conj()
                state, lam = state * back, lam * back
                continue
            state, lam = state @ self.blocks[j].conj(), lam @ self.blocks[j].conj()
            y = state.T @ lam.conj()
            for step in self.steps[j]:
                if isinstance(step, int):
                    r = self.layers[step]
                    y = r @ y @ r.conj()
                    reads[step] = y[self._flips, rows].sum(-1).imag
                else:
                    y = y[step][:, step]
        grad[self.params] += reads[self._at]
        return lam


class BlockwiseKernel(ModelKernel):
    """A ``ModelKernel`` with ``BlockwiseSection``s and the joint-state tail: the
    film and main states joined as a (B, 2**7) tensor product, the bridge
    CNOTs as one permutation of it and the final block run on every film
    state's rows, with the Z readouts of the seven-qubit state. It compiles at
    every call and keeps no forward."""

    def __init__(self):
        super().__init__()
        f, m = features.N_EPI, features.N_BLOCKS
        bridge = tuple(itertools.takewhile(lambda g: isinstance(g, CNot), self.tail_gates))
        self._bridge = np.arange(1 << (f + m))
        for g in bridge:
            self._bridge = self._bridge[cnot_perm(f + m, g.control, g.target)]
        film = BlockwiseSection(self.film_gates, 0, f, 0)
        main = BlockwiseSection(self.main_gates, f, m, film.params.stop)
        final = BlockwiseSection(self.tail_gates[len(bridge):], f, m, main.params.stop)
        self._sections = (film, main, final)
        rows, measured = np.arange(1 << (f + m)), np.arange(f, f + m)
        self._signs = 1.0 - 2.0 * ((rows >> (f + m - 1 - measured)[:, None]) & 1)  # (5, 2**7)

    def _run(self, params, x):
        """Film, main and final (B, 2**7) states, and each section's phases."""
        for section in self._sections:
            section.compile(params)
        phases = [section.phases(x) for section in self._sections]
        film, main, tail = self._sections
        f = film.run(qsim.zero_state(film.k, (len(x),)), phases[0])
        m = main.run(qsim.zero_state(main.k, (len(x),)), phases[1])
        joint = (f[:, :, None] * m[:, None, :]).reshape(len(x), -1)[:, self._bridge]
        final = tail.run(joint.reshape(-1, tail.dim), phases[2]).reshape(len(x), -1)
        return f, m, final, phases

    def expectations(self, params, features, epi) -> np.ndarray:
        final = self._run(*self._inputs(params, features, epi))[2]
        return np.abs(final) ** 2 @ self._signs.T

    def grad(self, params, features, epi, upstream) -> np.ndarray:
        params, x = self._inputs(params, features, epi)
        f, m, final, phases = self._run(params, x)
        film, main, tail = self._sections
        grad = np.zeros(self.n_params)
        lam = (np.asarray(upstream, float) @ self._signs) * final
        lam = tail.pullback(*(a.reshape(-1, tail.dim) for a in (lam, final)), phases[2], grad)
        lam = lam.reshape(len(x), -1)[:, np.argsort(self._bridge)]
        lam = lam.reshape(len(x), film.dim, main.dim)
        # the state before the tail is film (x) main: contract out the other factor
        main.pullback(np.einsum("bi,bia->ba", f.conj(), lam), m, phases[1], grad)
        film.pullback(np.einsum("bia,ba->bi", lam, m.conj()), f, phases[0], grad)
        return grad


# ---------------------------------------------------------------------------
# Step-by-step replay of training


def keyed_adam_step(params: dict, grads: dict, state: dict, lr: float) -> None:
    """One Adam update array by array, in place: ``state`` holds a step count
    and each key's moments. ``neural.adam_step`` updates one flat vector."""
    state["step"] = t = state.get("step", 0) + 1
    d1, d2 = neural.ADAM_DECAY
    for key, g in grads.items():
        if key not in state:
            state[key] = (np.zeros_like(params[key]), np.zeros_like(params[key]))
        m, v = state[key]
        m += (1 - d1) * (g - m)
        v += (1 - d2) * (g * g - v)
        mhat = m / (1 - d1 ** t)
        vhat = v / (1 - d2 ** t)
        params[key] -= lr * (mhat / (np.sqrt(vhat) + neural.ADAM_EPS)
                             + neural.WEIGHT_DECAY * params[key])


def replay_train(dataset, config):
    """``hybrid.train``'s split, shuffles, dropout and updates, step by step,
    with ``keyed_adam_step`` on the model's arrays. Before each update it scores
    the step's rows with a full eval-mode ``model.forward`` (kernel included)
    and counts the masked-argmax matches one row at a time. Returns the model,
    each epoch's share of matches over its steps, and each epoch's agreement
    over all training rows at its end."""
    train_ds, _ = dataset.split(config.val_fraction, seed=config.seed)
    model = hybrid.HybridModel(seed=config.seed, classical_only=config.classical_only)
    x, y, m = train_ds.feature_matrix(), train_ds.labels(), features.block_mask(train_ds.features)
    shuffle_rng, dropout_rng = [np.random.default_rng(s)
                                for s in np.random.SeedSequence(config.seed).spawn(2)]
    opt_classical, opt_quantum = {}, {}
    n = len(x)
    batch = min(config.batch_size, n)
    stepwise, at_end = [], []
    for epoch in range(config.epochs):
        factor = neural.lr_schedule(epoch, config.epochs)
        perm = shuffle_rng.permutation(n)
        hits = 0
        for lo in range(0, n, batch):
            idx = perm[lo:lo + batch]
            _, cg, hg, qg, _ = model.loss_grads(x[idx], y[idx], m[idx], rng=dropout_rng)
            for logits, mask, label in zip(model.forward(x[idx]), m[idx], y[idx]):
                hits += int(np.argmax(np.where(mask, logits, -np.inf)) == label)
            group = {**model.classical.params, "head_w": model.head_w, "head_b": model.head_b}
            keyed_adam_step(group, {**cg, **hg}, opt_classical, lr=hybrid.CLASSICAL_LR * factor)
            if not config.classical_only:
                keyed_adam_step({"quantum": model.quantum_params}, {"quantum": qg},
                                opt_quantum, lr=hybrid.QUANTUM_LR)
        stepwise.append(hits / n)
        logits = np.where(m, model.forward(x), -np.inf)
        at_end.append(sum(int(np.argmax(row) == label) for row, label in zip(logits, y)) / n)
    return model, stepwise, at_end
