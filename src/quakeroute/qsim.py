"""Dense statevector simulator and the hybrid model's quantum circuit.

The circuit has one shape, fixed by the sample layout of ``features``: a
two-qubit section that re-uploads the epicenter coordinates, one qubit each,
and a five-qubit section, one qubit per neighbor block, that encodes the
remaining features subvector by subvector, each interlaced with entangler
layers; the sections are joined by a CNOT bridge and a final entangler before
Z measurements of the five main qubits. A rotation either encodes a feature
or is trainable, and the k-th trainable rotation of a circuit turns by
``params[k]``. The generic engine (``run``) applies one gate at a time to a
batch of states, with parameters (..., n_params) broadcast against features
(..., n_features), and takes exact two-term parameter-shift gradients in one
run: every shifted parameter vector is a row of the batch. The training
kernel (``ModelKernel``) compiles each feature-free run of gates into one
unitary, built from whole layers of RX gates, and takes adjoint gradients one
layer at a time from the states of its last forward, with parameter-shift as
its reference.

States are complex128 arrays of shape (..., 2**n); qubit 0 is the most
significant bit of the amplitude index. Everything is batched over leading
axes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .features import N_BLOCKS, N_EPI, N_FEATURES, N_MAIN

FEATURE_SCALE = math.pi  # Z encodings map inputs in [0, 1] to angles in [0, pi]


class CircuitError(ValueError):
    """Bad circuit structure or mismatched parameter vector."""


class BindingError(ValueError):
    """Features or parameters were left unbound at export/run time."""


@dataclass(frozen=True)
class Rot:
    """Single-qubit rotation by ``scale * features[feature]``; one without a
    feature is trainable, and turns by its own entry of the parameters."""

    axis: str                 # "x" | "y" | "z"
    qubit: int
    feature: int | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise CircuitError(f"unknown rotation axis {self.axis!r}")
        if self.feature is None and self.scale != 1.0:
            raise CircuitError(f"a trainable rotation takes no scale, got {self.scale}")


@dataclass(frozen=True)
class CNot:
    control: int
    target: int

    def __post_init__(self):
        if self.control == self.target:
            raise CircuitError("control and target must differ")


@dataclass(frozen=True)
class Circuit:
    """Gate list, its number of features and the measured qubits."""

    n_qubits: int
    gates: tuple
    n_features: int
    measured: tuple[int, ...]

    def __post_init__(self):
        for g in self.gates:
            qubits = (g.qubit,) if isinstance(g, Rot) else (g.control, g.target)
            for q in qubits:
                if not 0 <= q < self.n_qubits:
                    raise CircuitError(f"qubit {q} out of range")
            if isinstance(g, Rot) and g.feature is not None:
                if not 0 <= g.feature < self.n_features:
                    raise CircuitError(f"feature {g.feature} out of range")
        for q in self.measured:
            if not 0 <= q < self.n_qubits:
                raise CircuitError(f"measured qubit {q} out of range")

    @property
    def n_params(self) -> int:
        """The number of trainable rotations, one parameter each."""
        return sum(isinstance(g, Rot) and g.feature is None for g in self.gates)

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
    s = state.reshape(state.shape[:-1] + (1 << qubit, 2, trail))
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


def _angles(circuit: Circuit, params, features):
    """Each gate with its angle (None for a CNOT): the k-th trainable rotation
    turns by params[..., k], an encoding by scale * features[..., feature]."""
    trainable = iter(np.moveaxis(params, -1, 0))
    for g in circuit.gates:
        if isinstance(g, CNot):
            yield g, None
        elif g.feature is None:
            yield g, next(trainable)
        elif features is None:
            raise BindingError(f"feature {g.feature} is unbound")
        else:
            yield g, g.scale * features[..., g.feature]


def run(circuit: Circuit, params, features=None) -> np.ndarray:
    """Simulate the circuit; returns amplitudes of shape (batch..., 2**n), where
    the batch broadcasts the leading axes of params and features."""
    params = np.asarray(params, float)
    if params.shape[-1:] != (circuit.n_params,):
        raise CircuitError(f"expected {circuit.n_params} parameters, got {params.shape}")
    batch = params.shape[:-1]
    if features is not None:
        features = np.asarray(features, float)
        if features.shape[-1:] != (circuit.n_features,):
            raise CircuitError(f"expected {circuit.n_features} features, got {features.shape}")
        try:
            batch = np.broadcast_shapes(batch, features.shape[:-1])
        except ValueError:
            raise CircuitError(f"parameters {params.shape} and features {features.shape} "
                               "do not broadcast") from None
    state, n = zero_state(circuit.n_qubits, batch), circuit.n_qubits
    for g, angle in _angles(circuit, params, features):
        if isinstance(g, CNot):
            state = state[..., _cx_perm(n, g.control, g.target)]
        else:
            state = _apply_rot(state, n, g.qubit, g.axis, angle)
    return state


@lru_cache(maxsize=None)
def _z_signs(n: int, qubit: int) -> np.ndarray:
    idx = np.arange(1 << n)
    return 1.0 - 2.0 * ((idx >> (n - 1 - qubit)) & 1)


def probabilities(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2


def expectation_z(state: np.ndarray, qubit: int):
    """Pauli-Z expectation of one qubit from the amplitudes; a multiply-and-sum
    over a C-ordered copy, unlike a BLAS product, reads the same bits in any batch."""
    n_qubits = state.shape[-1].bit_length() - 1
    return (np.ascontiguousarray(probabilities(state)) * _z_signs(n_qubits, qubit)).sum(-1)


def measured_expectations(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    return np.stack([expectation_z(state, q) for q in circuit.measured], -1)


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
    """Shape of the seven-qubit hybrid circuit, which has no settable value: one
    film qubit per epicenter coordinate, one main qubit per neighbor block, and
    ``reuploads`` bounds the output's Fourier degree in each coordinate."""

    # a class, not module constants: perfbench/workloads.py reads
    # model.model_config.n_film_params and passes it to build_model_circuit
    film_qubits, main_qubits = N_EPI, N_BLOCKS
    sublayers, reuploads, subvectors = 4, 5, 7  # 7 subvectors of 5 hold the 34 main features

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


def entangler_gates(qubits: tuple[int, ...], sublayers: int) -> list:
    """Gates of one entangler block: per sublayer a trainable RX on each qubit,
    then a ring of CNOTs."""
    gates: list = []
    for _ in range(sublayers):
        gates.extend(Rot("x", q) for q in qubits)
        gates.extend(CNot(q, qubits[(i + 1) % len(qubits)]) for i, q in enumerate(qubits))
    return gates


def build_model_circuit(config: ModelConfig = ModelConfig()) -> Circuit:
    """The full seven-qubit circuit; features are [34 main values, x_epi, y_epi].

    The epicenter section on the film qubits runs an entangler, then
    ``reuploads`` x [Z encodings of x_epi and y_epi, entangler]. The main
    section runs an entangler, then one [Z-encoded subvector, entangler] per
    subvector; a qubit past the last feature gets no encoding. Bridge CNOTs
    from every film qubit to every main qubit and a final entangler over the
    main qubits close the circuit. The trainable RX gates read the
    parameters in gate order: film, main, then final.
    """
    film = tuple(range(config.film_qubits))
    main = tuple(range(config.film_qubits, config.n_qubits))
    gates = entangler_gates(film, config.sublayers)
    for _ in range(config.reuploads):
        gates += [Rot("z", q, N_MAIN + q, FEATURE_SCALE) for q in film]
        gates += entangler_gates(film, config.sublayers)
    gates += entangler_gates(main, config.sublayers)
    for l in range(config.subvectors):
        gates += [Rot("z", q, f, FEATURE_SCALE)
                  for f, q in enumerate(main, l * len(main)) if f < N_MAIN]
        gates += entangler_gates(main, config.sublayers)
    gates += [CNot(c, t) for c in film for t in main]
    gates += entangler_gates(main, config.sublayers)
    return Circuit(n_qubits=config.n_qubits, gates=tuple(gates),
                   n_features=N_FEATURES, measured=main)


# ---------------------------------------------------------------------------
# Parameter-shift gradients


def _shift(circuit: Circuit, params, features, outputs, index: int | None):
    """Parameter-shift derivatives of ``outputs(state)`` in one run: rows j and
    P + j move parameter j (only ``index`` unless it is None) by +pi/2 and
    -pi/2, and half their difference is its derivative; None stacks them all."""
    params = np.asarray(params, float)
    p = circuit.n_params
    if params.shape != (p,):
        raise CircuitError(f"expected {p} parameters, got {params.shape}")
    if index is not None and not 0 <= index < p:
        raise CircuitError(f"parameter index {index} out of range")
    shifts = np.pi / 2 * np.eye(p)[slice(None) if index is None else [index]]
    batch = () if features is None else np.shape(features)[:-1]
    rows = params + np.stack([shifts, -shifts])
    plus, minus = outputs(run(circuit, rows.reshape(rows.shape[:2] + (1,) * len(batch) + (p,)),
                              features))
    grad = (plus - minus) / 2.0
    return grad if index is None else grad[0]


def param_shift_grad(circuit: Circuit, params, features=None, index: int | None = None):
    """Exact gradient of the measured-qubit Z expectations: the two-term shift
    rule moves the parameter vector itself.

    For one index returns (..., n_measured); for index=None the full Jacobian
    stacked over parameters.
    """
    return _shift(circuit, params, features, lambda s: measured_expectations(circuit, s), index)


def prob_grad(circuit: Circuit, params, features=None, index: int | None = None):
    """Parameter-shift gradient of all basis-state probabilities."""
    return _shift(circuit, params, features, probabilities, index)


# ---------------------------------------------------------------------------
# OpenQASM 3 export


def export_qasm3(circuit: Circuit, params, features=None) -> str:
    """OpenQASM 3.0 text with every rotation bound to a concrete angle."""
    params = np.asarray(params, float)
    if params.shape != (circuit.n_params,):
        raise BindingError(f"expected {circuit.n_params} bound parameters")
    if circuit.n_features and features is None:
        raise BindingError("feature values are required to bind the circuit")
    if features is not None:
        features = np.asarray(features, float)
        if features.ndim != 1 or features.shape[0] != circuit.n_features:
            raise BindingError(f"expected {circuit.n_features} bound features")
    if not all(np.isfinite(a).all() for a in (params, features) if a is not None):
        raise BindingError("bound parameters and features must be finite")
    lines = [
        "OPENQASM 3.0;",
        'include "stdgates.inc";',
        f"qubit[{circuit.n_qubits}] q;",
        f"bit[{len(circuit.measured)}] c;",
    ]
    for g, angle in _angles(circuit, params, features):
        if isinstance(g, CNot):
            lines.append(f"cx q[{g.control}], q[{g.target}];")
        else:
            lines.append(f"r{g.axis}({float(angle)!r}) q[{g.qubit}];")
    for k, q in enumerate(circuit.measured):
        lines.append(f"c[{k}] = measure q[{q}];")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Layer-compiled expectation/gradient kernel for training


def _support(gate) -> set[int]:
    return {gate.qubit} if isinstance(gate, Rot) else {gate.control, gate.target}


class _Section:
    """Gates on qubits ``first`` to ``first + k - 1``, run on (rows, 2**k) states,
    whose trainable rotations read ``params[start:]`` in gate order.

    A run of Z encodings is a per-sample phase vector exp(-i/2 * angles @ zsigns).
    Any other run is a block of RX parameters and CNOTs, compiled into one
    unitary. Its RX gates fall into layers: consecutive RX on distinct qubits,
    closed by a CNOT. A layer is one unitary,
    R[i, j] = prod_q (cos(t_q/2) if bit q of i^j is 0, else -i sin(t_q/2)),
    with t_q = 0 on the qubits it leaves alone; a run of CNOTs is one row
    permutation. All blocks repeat one pattern, so they compile and pull back
    as a stack, one batched product per position of the pattern.
    """

    def __init__(self, gates, first: int, k: int, start: int):
        self.k, self.dim = k, 1 << k
        self.runs = []  # (is encoding, index of its phase vector or block)
        enc = []  # per encoding run: (features, k) -> each qubit's angle
        blocks = []  # per block: its gates, the same in every block
        for encoding, run in groupby(gates, lambda g: isinstance(g, Rot)
                                     and g.axis == "z" and g.feature is not None):
            self.runs.append((encoding, len(enc) if encoding else len(blocks)))
            if encoding:
                enc.append(np.zeros((N_FEATURES, k)))
                for g in run:
                    enc[-1][g.feature, g.qubit - first] += g.scale
                continue
            blocks.append(tuple(run))
            if blocks[-1] != blocks[0]:
                raise CircuitError("every block of a section repeats its first block's gates")
        self.pattern = []  # in order: a layer's index or a CNOT run's permutation
        layers = []  # per layer: the local qubits of its RX gates, in gate order
        for g in blocks[0]:
            if isinstance(g, CNot):
                perm = _cx_perm(k, g.control - first, g.target - first)
                if self.pattern and not isinstance(self.pattern[-1], int):  # one per CNOT run
                    perm = self.pattern.pop()[perm]
                self.pattern.append(perm)
            elif g.axis == "x" and g.feature is None:
                if not self.pattern or not isinstance(self.pattern[-1], int):
                    self.pattern.append(len(layers))
                    layers.append([])
                layers[-1].append(g.qubit - first)
            else:
                raise CircuitError(f"a block holds RX parameters and CNOTs, not {g}")
        self._enc_w = np.concatenate(enc or [np.zeros((N_FEATURES, 0))], 1)
        rows = np.arange(self.dim)
        self._bits = (rows >> (k - 1 - np.arange(k))[:, None]) & 1
        self._xor = rows[:, None] ^ rows  # R[i, j] reads flip pattern i ^ j
        self._flips = rows ^ (1 << (k - 1 - np.arange(k)))[:, None]  # X_q as (k, 2**k) rows
        # each RX gate's (block, layer, qubit) position, in gate order
        at = [(b, l, q) for b in range(len(blocks)) for l, qs in enumerate(layers) for q in qs]
        self._at = tuple(np.array(at, int).reshape(-1, 3).T)
        self.params = slice(start, start + len(at))
        self._shape = (len(blocks), len(layers))

    def phases(self, x) -> np.ndarray:
        """(B, encoding runs, 2**k) phase vectors of the feature rows ``x``: each
        basis state's phase is the product of its qubits' exp(-/+ i/2 angle)."""
        angles = (x @ self._enc_w).reshape(len(x), -1, self.k, 1)
        bit0 = np.exp(-0.5j * angles)  # each qubit's phase on |0>; |1> takes the conjugate
        pair = np.concatenate([bit0, bit0.conj()], axis=-1)
        return pair[:, :, np.arange(self.k)[:, None], self._bits].prod(axis=2)

    def compile(self, params) -> None:
        """Set ``layers`` and ``blocks``, the layer and block unitaries at these
        parameters, stacked by block. All layers come from one expression: each
        layer's value on every flip pattern, gathered through the i ^ j table."""
        half = np.zeros(self._shape + (self.k,))
        half[self._at] = params[self.params] / 2.0
        pair = np.stack([np.cos(half), -1j * np.sin(half)], axis=-1)  # bit of i^j: 0, 1
        values = pair[..., np.arange(self.k)[:, None], self._bits].prod(axis=-2)
        self.layers = values[..., self._xor]
        u = np.eye(self.dim, dtype=complex)
        for step in self.pattern:
            u = self.layers[:, step] @ u if isinstance(step, int) else u.take(step, 1)
        self.blocks = u

    def run(self, state, phases):
        for encoding, j in self.runs:
            state = state * phases[:, j] if encoding else state @ self.blocks[j].T
        return state

    def pullback(self, lam, state, phases, grad) -> np.ndarray:
        """The costate before the section from the costate and state after it,
        adding the section's gradient into ``grad`` (the adjoint method). Each
        block's Y = sum_b u_b lam_b^+ of its input rows is carried through the
        pattern as Y -> R Y R^+, all blocks at once. Right after a layer,
        d/dt_q = Im tr(X_q Y) for each of its qubits: X_q commutes with every
        RX of the layer, so the layer's later gates leave the trace alone."""
        y = np.empty((self._shape[0], self.dim, self.dim), complex)
        for encoding, j in reversed(self.runs):
            if encoding:
                back = phases[:, j].conj()
                state, lam = state * back, lam * back
                continue
            state, lam = state @ self.blocks[j].conj(), lam @ self.blocks[j].conj()
            y[j] = state.T @ lam.conj()
        reads, rows = np.zeros(self._shape + (self.k,)), np.arange(self.dim)
        for step in self.pattern:
            if isinstance(step, int):
                r = self.layers[:, step]  # symmetric, so R^+ is its conjugate
                y = r @ y @ r.conj()
                # a C-ordered copy sums each read in the same order as one block alone
                reads[:, step] = np.ascontiguousarray(y[:, self._flips, rows]).sum(-1).imag
            else:
                y = y.take(step, 1).take(step, 2)
        grad[self.params] += reads[self._at]
        return lam


class ModelKernel:
    """Batched forward and adjoint gradients for the full model.

    The gates of ``build_model_circuit`` fall into four runs by the registers
    they touch: the film and main sections, simulated apart and joined as a
    tensor product, then the tail (the bridge CNOTs, as one permutation, and a
    final block on the main qubits). Layer and block unitaries are compiled
    once per distinct parameter vector. Every forward keeps its feature rows,
    states and phases (references, no copies), and ``grad`` at the same
    parameters and rows starts from them, so a training step simulates the
    circuit once. ``param_shift_grad`` is the reference for ``grad``.
    """

    def __init__(self):
        circuit = build_model_circuit()
        n, f, m = circuit.n_qubits, N_EPI, N_BLOCKS
        film = set(range(f))
        self.film_gates, self.main_gates, bridge, final = (tuple(run) for _, run in groupby(
            circuit.gates, lambda g: (bool(_support(g) & film), bool(_support(g) - film))))
        self.tail_gates = bridge + final
        self.n_params = circuit.n_params
        self._bridge = np.arange(1 << n)
        for g in bridge:
            self._bridge = self._bridge[_cx_perm(n, g.control, g.target)]
        film_section = _Section(self.film_gates, 0, f, 0)
        main_section = _Section(self.main_gates, f, m, film_section.params.stop)
        self._sections = (film_section, main_section,
                          _Section(final, f, m, main_section.params.stop))
        self._zsigns = np.stack([_z_signs(n, q) for q in circuit.measured])
        self._compiled_for = None  # a copy of the parameters the blocks were compiled for
        self._forward = None  # the last forward: (rows, film, main, final, phases)

    def _inputs(self, params, features, epi):
        """Checked parameters and circuit feature rows [34 main, x_epi, y_epi]."""
        params = np.asarray(params, float)
        if params.shape != (self.n_params,) or not np.isfinite(params).all():
            raise CircuitError(
                f"expected {self.n_params} finite parameters, got shape {params.shape}")
        features = np.atleast_2d(np.asarray(features, float))
        epi = np.atleast_2d(np.asarray(epi, float))
        if features.shape[-1] != N_MAIN or epi.shape[-1] != N_EPI:
            raise CircuitError(f"expected {N_MAIN} main features and {N_EPI} epicenter values")
        return params, np.concatenate([features, epi], axis=-1)

    def _run(self, params, x):
        """Film, main and final states (B, 2**n) of the feature rows ``x``, and
        each section's phase vectors; kept as the last forward."""
        self._forward = None  # hold one forward at a time
        # keyed on the values, not the array: optimizers update it in place
        if self._compiled_for is None or not np.array_equal(self._compiled_for, params):
            for section in self._sections:
                section.compile(params)
            self._compiled_for = params.copy()
        phases = [section.phases(x) for section in self._sections]
        film, main, tail = self._sections
        f = film.run(zero_state(film.k, (len(x),)), phases[0])
        m = main.run(zero_state(main.k, (len(x),)), phases[1])
        joint = (f[:, :, None] * m[:, None, :]).reshape(len(x), -1)[:, self._bridge]
        final = tail.run(joint.reshape(-1, tail.dim), phases[2]).reshape(len(x), -1)
        self._forward = x, f, m, final, phases
        return self._forward

    def expectations(self, params, features, epi) -> np.ndarray:
        """(B, 5) Z expectations of the five main qubits."""
        final = self._run(*self._inputs(params, features, epi))[3]
        return probabilities(final) @ self._zsigns.T

    def grad(self, params, features, epi, upstream) -> np.ndarray:
        """Sum over the batch of upstream[b, k] * d<Z_k>_b / d theta.

        ``upstream`` is (B, m); returns (n_params,). Exact adjoint gradient.
        Starts from the last forward if it ran at these parameter values on
        these feature rows, and runs its own forward otherwise.
        """
        params, x = self._inputs(params, features, epi)
        forward = self._forward
        if (forward is None or not np.array_equal(self._compiled_for, params)
                or not np.array_equal(forward[0], x)):
            forward = self._run(params, x)
        _, f, m, final, phases = forward
        film, main, tail = self._sections
        grad = np.zeros(self.n_params)
        lam = (np.asarray(upstream, float) @ self._zsigns) * final
        lam = tail.pullback(*(a.reshape(-1, tail.dim) for a in (lam, final)), phases[2], grad)
        lam = lam.reshape(len(x), -1)[:, np.argsort(self._bridge)]
        lam = lam.reshape(len(x), film.dim, main.dim)
        # the state before the tail is film (x) main: contract out the other factor
        main.pullback(np.einsum("bi,bia->ba", f.conj(), lam), m, phases[1], grad)
        film.pullback(np.einsum("bia,ba->bi", lam, m.conj()), f, phases[0], grad)
        return grad
