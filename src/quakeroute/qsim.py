"""Dense statevector simulator and the hybrid model's quantum circuit.

The circuit has a two-qubit section that re-uploads the epicenter coordinates
and a five-qubit section that encodes the remaining features subvector by
subvector, each interlaced with entangler layers; the sections are joined by
a CNOT bridge and a final entangler before Z measurements of the five main
qubits. Gradients use the exact two-term parameter-shift rule.

States are complex128 arrays of shape (..., 2**n); qubit 0 is the most
significant bit of the amplitude index. Everything is batched over leading
axes. A (..., 2**k) array may also stand for the last k qubits of an n-qubit
register: gates on those qubits act on it under the register's own qubit
indices (the training kernel simulates the main section this way).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

N_MAIN_FEATURES = 34
N_EPI_FEATURES = 2
GRAD_CHUNK = 512  # ModelKernel.grad rows per pass, bounding the cached states


class CircuitError(ValueError):
    """Bad circuit structure or mismatched parameter vector."""


class BindingError(ValueError):
    """A feature or parameter slot was left unbound at export/run time."""


@dataclass(frozen=True)
class Rot:
    """Single-qubit rotation; angle = scale * source[index] + offset."""

    axis: str                 # "x" | "y" | "z"
    qubit: int
    src: str = "const"        # "param" | "feature" | "const"
    index: int = -1
    scale: float = 1.0
    offset: float = 0.0

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise CircuitError(f"unknown rotation axis {self.axis!r}")
        if self.src not in ("param", "feature", "const"):
            raise CircuitError(f"unknown angle source {self.src!r}")


@dataclass(frozen=True)
class CNot:
    control: int
    target: int

    def __post_init__(self):
        if self.control == self.target:
            raise CircuitError("control and target must differ")


@dataclass(frozen=True)
class Circuit:
    """Gate list with parameter/feature slots and the measured qubits."""

    n_qubits: int
    gates: tuple
    n_params: int
    n_features: int
    measured: tuple[int, ...]

    def __post_init__(self):
        for g in self.gates:
            qubits = (g.qubit,) if isinstance(g, Rot) else (g.control, g.target)
            for q in qubits:
                if not 0 <= q < self.n_qubits:
                    raise CircuitError(f"qubit {q} out of range")
            if isinstance(g, Rot) and g.src == "param":
                if not 0 <= g.index < self.n_params:
                    raise CircuitError(f"parameter slot {g.index} out of range")
            if isinstance(g, Rot) and g.src == "feature":
                if not 0 <= g.index < self.n_features:
                    raise CircuitError(f"feature slot {g.index} out of range")
        for q in self.measured:
            if not 0 <= q < self.n_qubits:
                raise CircuitError(f"measured qubit {q} out of range")

    def param_occurrences(self, index: int) -> list[tuple[int, float]]:
        """Gate positions (and angle scales) where parameter ``index`` enters."""
        return [(pos, g.scale) for pos, g in enumerate(self.gates)
                if isinstance(g, Rot) and g.src == "param" and g.index == index]

    def census(self) -> dict[str, int]:
        counts = {"rx": 0, "ry": 0, "rz": 0, "cx": 0}
        for g in self.gates:
            counts["cx" if isinstance(g, CNot) else f"r{g.axis}"] += 1
        return counts


# ---------------------------------------------------------------------------
# Statevector engine


def zero_state(n_qubits: int, batch_shape: tuple = ()) -> np.ndarray:
    state = np.zeros(batch_shape + (1 << n_qubits,), complex)
    state[..., 0] = 1.0
    return state


def _apply_rot(state: np.ndarray, n: int, qubit: int, axis: str, theta) -> np.ndarray:
    trail = 1 << (n - qubit - 1)
    s = state.reshape(state.shape[:-1] + (-1, 2, trail))
    theta = np.asarray(theta)
    half = theta / 2.0
    c = np.cos(half)
    sn = np.sin(half)
    if theta.ndim:  # batched per-sample angles
        c = c.reshape(c.shape + (1, 1))
        sn = sn.reshape(sn.shape + (1, 1))
    s0 = s[..., 0, :]
    s1 = s[..., 1, :]
    if axis == "x":
        r0 = c * s0 - 1j * sn * s1
        r1 = -1j * sn * s0 + c * s1
    elif axis == "y":
        r0 = c * s0 - sn * s1
        r1 = sn * s0 + c * s1
    else:
        r0 = (c - 1j * sn) * s0
        r1 = (c + 1j * sn) * s1
    return np.stack([r0, r1], axis=-2).reshape(state.shape)


@lru_cache(maxsize=None)
def _cx_perm(n: int, control: int, target: int) -> np.ndarray:
    idx = np.arange(1 << n)
    cbit = (idx >> (n - 1 - control)) & 1
    return np.where(cbit == 1, idx ^ (1 << (n - 1 - target)), idx)


def _apply_cx(state: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    return state[..., _cx_perm(n, control, target)[:state.shape[-1]]]


def _gate_angle(gate: Rot, params, features):
    if gate.src == "const":
        return gate.offset
    if gate.src == "param":
        return gate.scale * params[gate.index] + gate.offset
    if features is None:
        raise BindingError(f"feature slot {gate.index} is unbound")
    return gate.scale * np.asarray(features)[..., gate.index] + gate.offset


def _run_gates(state: np.ndarray, n: int, gates, params, features,
               override: tuple[int, float] | None = None,
               cache: list | None = None) -> np.ndarray:
    """Apply ``gates`` in order; ``cache`` (if given) collects the state before
    every gate and the final one."""
    for pos, g in enumerate(gates):
        if cache is not None:
            cache.append(state)
        if isinstance(g, CNot):
            state = _apply_cx(state, n, g.control, g.target)
            continue
        angle = _gate_angle(g, params, features)
        if override is not None and pos == override[0]:
            angle = angle + override[1]
        state = _apply_rot(state, n, g.qubit, g.axis, angle)
    if cache is not None:
        cache.append(state)
    return state


def run(circuit: Circuit, params, features=None,
        override: tuple[int, float] | None = None) -> np.ndarray:
    """Simulate the circuit; returns amplitudes of shape (batch..., 2**n)."""
    params = np.asarray(params, float)
    if params.shape != (circuit.n_params,):
        raise CircuitError(
            f"expected {circuit.n_params} parameters, got {params.shape}")
    batch = ()
    if features is not None:
        features = np.asarray(features, float)
        if features.shape[-1] != circuit.n_features:
            raise CircuitError(
                f"expected {circuit.n_features} features, got {features.shape[-1]}")
        batch = features.shape[:-1]
    state = zero_state(circuit.n_qubits, batch)
    return _run_gates(state, circuit.n_qubits, circuit.gates, params, features, override)


@lru_cache(maxsize=None)
def _z_signs(n: int, qubit: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return 1.0 - 2.0 * ((idx >> (n - 1 - qubit)) & 1)


def probabilities(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2


def expectation_z(state: np.ndarray, qubit: int, n_qubits: int | None = None):
    """Pauli-Z expectation of one qubit from the amplitudes."""
    if n_qubits is None:
        n_qubits = int(round(math.log2(state.shape[-1])))
    return probabilities(state) @ _z_signs(n_qubits, qubit)


def measured_expectations(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    vals = [expectation_z(state, q, circuit.n_qubits) for q in circuit.measured]
    return np.stack([np.asarray(v) for v in vals], axis=-1)


def sample_bitstrings(state: np.ndarray, shots: int, rng: np.random.Generator,
                      qubits: tuple[int, ...] | None = None) -> np.ndarray:
    """Computational-basis shots; returns (shots, len(qubits)) of 0/1."""
    if state.ndim != 1:
        raise CircuitError("shot sampling expects a single (unbatched) state")
    n = int(round(math.log2(state.shape[-1])))
    if qubits is None:
        qubits = tuple(range(n))
    p = probabilities(state)
    p = p / p.sum()
    draws = rng.choice(len(p), size=shots, p=p)
    return np.stack([(draws >> (n - 1 - q)) & 1 for q in qubits], axis=1)


# ---------------------------------------------------------------------------
# Circuit builders


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the seven-qubit hybrid circuit."""

    film_qubits: int = 2
    main_qubits: int = 5
    sublayers: int = 4
    reuploads: int = 5
    subvectors: int = 7
    feature_scale: float = math.pi  # inputs in [0,1] map to [0, pi]

    def __post_init__(self):
        if self.main_qubits * self.subvectors < N_MAIN_FEATURES:
            raise CircuitError("subvectors cannot hold the 34 main features")

    @property
    def n_qubits(self) -> int:
        return self.film_qubits + self.main_qubits

    @property
    def n_film_params(self) -> int:
        return self.sublayers * self.film_qubits * (self.reuploads + 1)

    @property
    def n_main_params(self) -> int:
        return self.sublayers * self.main_qubits * (self.subvectors + 1)

    @property
    def n_final_params(self) -> int:
        return self.sublayers * self.main_qubits

    @property
    def n_params(self) -> int:
        return self.n_film_params + self.n_main_params + self.n_final_params


def entangler_gates(qubits: tuple[int, ...], sublayers: int, first_param: int):
    """Gates of one entangler block; returns (gates, next_param_index)."""
    gates: list = []
    p = first_param
    for _ in range(sublayers):
        for q in qubits:
            gates.append(Rot("x", q, "param", p))
            p += 1
        if len(qubits) > 1:
            for i, q in enumerate(qubits):
                gates.append(CNot(q, qubits[(i + 1) % len(qubits)]))
    return gates, p


def build_model_circuit(config: ModelConfig = ModelConfig()) -> Circuit:
    """The full seven-qubit circuit; features are [34 main values, x_epi, y_epi].

    The epicenter section on the film qubits runs an entangler, then
    ``reuploads`` x [Z encodings of x_epi and y_epi, entangler]. The main
    section runs an entangler, then one [Z-encoded subvector, entangler] per
    subvector; missing trailing features encode as zero padding. Bridge CNOTs
    from every film qubit to every main qubit and a final entangler over the
    main qubits close the circuit.
    """
    film = tuple(range(config.film_qubits))
    main = tuple(range(config.film_qubits, config.n_qubits))
    gates, p = entangler_gates(film, config.sublayers, 0)
    for _ in range(config.reuploads):
        for q, f in zip(film, (N_MAIN_FEATURES, N_MAIN_FEATURES + 1)):
            gates.append(Rot("z", q, "feature", f, scale=config.feature_scale))
        block, p = entangler_gates(film, config.sublayers, p)
        gates.extend(block)
    block, p = entangler_gates(main, config.sublayers, p)
    gates.extend(block)
    for l in range(config.subvectors):
        for t, q in enumerate(main):
            f = l * len(main) + t
            if f < N_MAIN_FEATURES:
                gates.append(Rot("z", q, "feature", f, scale=config.feature_scale))
            else:
                gates.append(Rot("z", q, "const", offset=0.0))
        block, p = entangler_gates(main, config.sublayers, p)
        gates.extend(block)
    gates.extend(CNot(c, t) for c in film for t in main)
    block, p = entangler_gates(main, config.sublayers, p)
    gates.extend(block)
    assert p == config.n_params
    return Circuit(n_qubits=config.n_qubits, gates=tuple(gates), n_params=p,
                   n_features=N_MAIN_FEATURES + N_EPI_FEATURES, measured=main)


# ---------------------------------------------------------------------------
# Parameter-shift gradients


def _shift_outputs(circuit: Circuit, params, features, outputs_fn, index: int):
    grad = None
    for pos, scale in circuit.param_occurrences(index):
        plus = outputs_fn(run(circuit, params, features, override=(pos, +np.pi / 2)))
        minus = outputs_fn(run(circuit, params, features, override=(pos, -np.pi / 2)))
        term = scale * (plus - minus) / 2.0
        grad = term if grad is None else grad + term
    if grad is None:  # parameter not used by any gate
        probe = outputs_fn(run(circuit, params, features))
        grad = np.zeros_like(probe)
    return grad


def param_shift_grad(circuit: Circuit, params, features=None, index: int | None = None):
    """Exact gradient of the measured-qubit Z expectations.

    For one index returns (..., n_measured); for index=None the full Jacobian
    stacked over parameters. Shared parameter slots sum their shift terms.
    """
    params = np.asarray(params, float)
    outputs = lambda s: measured_expectations(circuit, s)
    if index is not None:
        if not 0 <= index < circuit.n_params:
            raise CircuitError(f"parameter index {index} out of range")
        return _shift_outputs(circuit, params, features, outputs, index)
    return np.stack([_shift_outputs(circuit, params, features, outputs, i)
                     for i in range(circuit.n_params)])


def prob_grad(circuit: Circuit, params, features=None, index: int | None = None):
    """Parameter-shift gradient of all basis-state probabilities."""
    params = np.asarray(params, float)
    if index is not None:
        if not 0 <= index < circuit.n_params:
            raise CircuitError(f"parameter index {index} out of range")
        return _shift_outputs(circuit, params, features, probabilities, index)
    return np.stack([_shift_outputs(circuit, params, features, probabilities, i)
                     for i in range(circuit.n_params)])


# ---------------------------------------------------------------------------
# OpenQASM 3 export


def export_qasm3(circuit: Circuit, params, features=None) -> str:
    """OpenQASM 3.0 text with every slot bound to a concrete angle."""
    params = np.asarray(params, float)
    if params.shape != (circuit.n_params,):
        raise BindingError(f"expected {circuit.n_params} bound parameters")
    if circuit.n_features and features is None:
        raise BindingError("feature values are required to bind the circuit")
    if features is not None:
        features = np.asarray(features, float)
        if features.ndim != 1 or features.shape[0] != circuit.n_features:
            raise BindingError(f"expected {circuit.n_features} bound features")
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"qubit[{circuit.n_qubits}] q;",
        f"bit[{len(circuit.measured)}] c;",
    ]
    for g in circuit.gates:
        if isinstance(g, CNot):
            lines.append(f"cx q[{g.control}], q[{g.target}];")
        else:
            angle = float(_gate_angle(g, params, features))
            lines.append(f"r{g.axis}({angle!r}) q[{g.qubit}];")
    for k, q in enumerate(circuit.measured):
        lines.append(f"c[{k}] = measure q[{q}];")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fast expectation/gradient kernel for training


def _apply_pauli(state: np.ndarray, n: int, qubit: int, axis: str) -> np.ndarray:
    """X, Y or Z applied to one qubit of a (..., 2**n) state."""
    dim = state.shape[-1]
    signs = _z_signs(n, qubit)[:dim]
    if axis == "z":
        return state * signs
    flipped = state[..., np.arange(dim) ^ (1 << (n - 1 - qubit))]
    if axis == "x":
        return flipped
    return flipped * (-1j * signs)  # Y = -i |bit> sign convention after flip


def _support(gate) -> set[int]:
    return {gate.qubit} if isinstance(gate, Rot) else {gate.control, gate.target}


class ModelKernel:
    """Batched forward and parameter-shift gradients for the full model.

    The gates are those of ``build_model_circuit``, split at the first gate
    that touches both registers (the first bridge CNOT): the gates before it
    form the film and main sections by qubit support, the rest the tail.
    Until the bridge the sections act on disjoint qubits, so their states are
    simulated separately and joined as a tensor product; for gradients the
    measured observables are pulled back through the circuit so that each
    gate's shift-rule term stays in its section's small space.
    """

    def __init__(self, config: ModelConfig = ModelConfig()):
        self.config = config
        circuit = build_model_circuit(config)
        gates = circuit.gates
        film = set(range(config.film_qubits))
        bridge = next(pos for pos, g in enumerate(gates)
                      if _support(g) & film and _support(g) - film)
        self.film_gates = tuple(g for g in gates[:bridge] if _support(g) <= film)
        self.main_gates = tuple(g for g in gates[:bridge] if not _support(g) & film)
        self.tail_gates = gates[bridge:]
        self.n_params = circuit.n_params
        n = config.n_qubits
        self._zsigns = np.stack([_z_signs(n, q) for q in circuit.measured])

    def _inputs(self, params, features, epi):
        """Checked parameters and circuit feature rows [34 main, x_epi, y_epi]."""
        params = np.asarray(params, float)
        if params.shape != (self.n_params,):
            raise CircuitError(f"expected {self.n_params} parameters, got {params.shape}")
        features = np.atleast_2d(np.asarray(features, float))
        epi = np.atleast_2d(np.asarray(epi, float))
        if features.shape[-1] != N_MAIN_FEATURES or epi.shape[-1] != N_EPI_FEATURES:
            raise CircuitError("expected 34 main features and 2 epicenter values")
        return params, np.concatenate([features, epi], axis=-1)

    def _sections(self, params, x, caches=(None, None, None)):
        """Film and final states. The film qubits lead the register, so the
        film state is a register of its own; the main qubits trail it, so the
        main state holds the low bits of the full register's index."""
        cfg = self.config
        n = cfg.n_qubits
        film_cache, main_cache, tail_cache = caches
        batch = x.shape[:-1]
        film = _run_gates(zero_state(cfg.film_qubits, batch), cfg.film_qubits,
                          self.film_gates, params, x, cache=film_cache)
        main = _run_gates(zero_state(cfg.main_qubits, batch), n,
                          self.main_gates, params, x, cache=main_cache)
        joint = np.einsum("bi,bj->bij", film, main).reshape(film.shape[0], -1)
        final = _run_gates(joint, n, self.tail_gates, params, x, cache=tail_cache)
        return film, final

    def expectations(self, params, features, epi) -> np.ndarray:
        """(B, 5) Z expectations of the main qubits."""
        _, final = self._sections(*self._inputs(params, features, epi))
        return probabilities(final) @ self._zsigns.T

    # -- upstream-contracted gradient ----------------------------------------

    def grad(self, params, features, epi, upstream) -> np.ndarray:
        """Sum over the batch of upstream[b, k] * d<Z_k>_b / d theta.

        ``upstream`` is (B, 5); returns (n_params,). Exact parameter-shift,
        evaluated section by section against pulled-back observables.
        """
        params, x = self._inputs(params, features, epi)
        upstream = np.asarray(upstream, float)
        total = np.zeros(self.n_params)
        for lo in range(0, x.shape[0], GRAD_CHUNK):
            sl = slice(lo, lo + GRAD_CHUNK)
            total += self._grad_chunk(params, x[sl], upstream[sl])
        return total

    def _grad_chunk(self, params, x, upstream) -> np.ndarray:
        cfg = self.config
        n = cfg.n_qubits
        dims = (x.shape[0], 1 << cfg.film_qubits, 1 << cfg.main_qubits)
        grad = np.zeros(self.n_params)
        caches = ([], [], [])
        film, final = self._sections(params, x, caches)
        film_cache, main_cache, tail_cache = caches

        # The shift-rule difference for a rotation gate collapses to
        # Im <lam_g | P u_g>, with u_g the post-gate state, P the gate's Pauli
        # generator and lam_g the batch observable (sum_k up[b,k] Z_k) applied
        # to the final state and pulled back through every later gate. The
        # pullback runs once over the whole circuit in reverse, in the full
        # register; only the overlap with u_g depends on the section.
        def tail_overlap(lam, pu):
            return np.einsum("bi,bi->b", lam.conj(), pu)

        def main_overlap(lam, pu):
            # before the tail the film factor is already final
            return np.einsum("bia,bi,ba->b", lam.reshape(dims).conj(), film, pu)

        def film_overlap(lam, pu):
            # film gates run first, with the main register still at |0...0>
            return np.einsum("bi,bi->b", lam.reshape(dims)[:, :, 0].conj(), pu)

        lam = (upstream @ self._zsigns) * final
        for gates, cache, n_u, overlap in (
                (self.tail_gates, tail_cache, n, tail_overlap),
                (self.main_gates, main_cache, n, main_overlap),
                (self.film_gates, film_cache, cfg.film_qubits, film_overlap)):
            for pos in reversed(range(len(gates))):
                g = gates[pos]
                if isinstance(g, CNot):
                    lam = _apply_cx(lam, n, g.control, g.target)
                    continue
                if g.src == "param":
                    pu = _apply_pauli(cache[pos + 1], n_u, g.qubit, g.axis)
                    grad[g.index] += g.scale * float(overlap(lam, pu).imag.sum())
                lam = _apply_rot(lam, n, g.qubit, g.axis, -_gate_angle(g, params, x))
        return grad
