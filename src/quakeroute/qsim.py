"""Dense statevector simulator and the hybrid model's quantum circuit.

The circuit has one shape, fixed by the sample layout of ``features``: a
two-qubit section that re-uploads the epicenter coordinates, one qubit each,
and a five-qubit section, one qubit per neighbor block, that encodes the
remaining features subvector by subvector, each interlaced with entangler
layers; the sections are joined by a CNOT bridge and a final entangler before
Z measurements of the five main qubits. A rotation either encodes a feature
or is trainable, and the k-th trainable rotation of a circuit turns by
``params[k]``. The generic engine has one forward, which applies one gate at
a time to a batch of states, with parameters (..., n_params) broadcast
against features (..., n_features), no features being an empty row; one
check of those inputs serves it and the QASM export, which binds a single
row. ``run`` returns the forward's last state. It holds the batch
amplitude-major, as one (2**n, rows) array with the flattened batch on the
contiguous last axis, so each gate is a few array operations over long rows:
a rotation combines the two halves of its qubit's axis, a CNOT gathers
amplitude rows. ``param_shift_grad`` takes the exact two-term shift rule in
one run, every shifted parameter vector a row of the batch, and ``prob_grad``
the probabilities and their Jacobian from that forward and one reverse sweep
of the 2**n basis costates (the adjoint method). The training kernel
(``ModelKernel``) compiles each feature-free run of RX and CNOT gates into
one unitary: its CNOT permutation after commuting X-string rotations,
diagonal between two Hadamard transforms. Its last forward serves every
call at the same parameter values and feature rows, and it reads every
adjoint gradient from the X-strings and that forward's states, with
parameter-shift as its reference.

States that functions take and return are C-ordered complex128 arrays of
shape (..., 2**n); qubit 0 is the most significant bit of the amplitude
index. Everything is batched over leading axes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import groupby

import numpy as np

from .features import N_BLOCKS, N_EPI, N_FEATURES, N_MAIN

FEATURE_SCALE = math.pi  # Z encodings map inputs in [0, 1] to angles in [0, pi]


class CircuitError(ValueError):
    """Bad circuit structure or mismatched parameter vector."""


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


def _apply_rot(state: np.ndarray, n: int, qubit: int, axis: str, c, sn) -> np.ndarray:
    """Rotate one qubit of an amplitude-major (2**n, rows) state; ``c`` and
    ``sn`` are the cosine and sine of half the angle, scalars or one per row."""
    s = state.reshape(1 << qubit, 2, 1 << (n - qubit - 1), state.shape[-1])
    out = np.empty_like(s)
    s0, s1, r0, r1 = s[:, 0], s[:, 1], out[:, 0], out[:, 1]
    if axis == "z":
        np.multiply(c - 1j * sn, s0, out=r0)
        np.multiply(c + 1j * sn, s1, out=r1)
    else:
        # r0 = c s0 - u s1 and r1 = v s0 + c s1 with the c terms formed in place:
        # a temporary per product made a rotation up to 5x slower at some row
        # counts (3,840 and 4,096 rows of three qubits, against 4,000)
        u, v = (1j * sn, -1j * sn) if axis == "x" else (sn, sn)
        np.multiply(c, s0, out=r0)
        np.multiply(c, s1, out=r1)
        np.subtract(r0, u * s1, out=r0)
        np.add(v * s0, r1, out=r1)
    return out.reshape(state.shape)


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
        else:
            yield g, g.scale * features[..., g.feature]


def _checked(circuit: Circuit, params, features):
    """Parameters (..., n_params) and features (..., n_features) as float
    arrays, and the shape their leading axes broadcast to; no features is an
    empty feature row. The only check of a circuit's inputs."""
    params = np.asarray(params, float)
    if params.shape[-1:] != (circuit.n_params,):
        raise CircuitError(f"expected {circuit.n_params} parameters, got {params.shape}")
    features = np.asarray(() if features is None else features, float)
    if features.shape[-1:] != (circuit.n_features,):
        raise CircuitError(f"expected {circuit.n_features} features, "
                           f"got {features.shape if features.size else 'none'}")
    try:
        return params, features, np.broadcast_shapes(params.shape[:-1], features.shape[:-1])
    except ValueError:
        raise CircuitError(f"parameters {params.shape} and features {features.shape} "
                           "do not broadcast") from None


def _sweep(circuit: Circuit, params, features):
    """The batch shape and |0> per row, then each gate, its half angle's cosine
    and sine per row (None for a CNOT) and the (2**n, rows) state after it."""
    params, features, batch = _checked(circuit, params, features)
    n = circuit.n_qubits
    state = np.repeat(np.eye(1 << n, 1, dtype=complex), math.prod(batch), axis=1)
    yield batch, state
    for g, angle in _angles(circuit, params, features):
        if isinstance(g, CNot):
            state, c, sn = state[_cx_perm(n, g.control, g.target)], None, None
        else:  # one angle per row, taken before the broadcast
            c, sn = (np.broadcast_to(f(angle / 2.0), batch).reshape(-1) for f in (np.cos, np.sin))
            state = _apply_rot(state, n, g.qubit, g.axis, c, sn)
        yield g, c, sn, state


def run(circuit: Circuit, params, features=None) -> np.ndarray:
    """Amplitudes (batch..., 2**n) after the circuit, the last state of its
    sweep; the batch broadcasts the leading axes of params and features."""
    sweep = _sweep(circuit, params, features)
    batch, state = next(sweep)
    for *_, state in sweep:
        pass
    return np.ascontiguousarray(state.T).reshape(batch + state.shape[:1])


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
# Gradients


def param_shift_grad(circuit: Circuit, params, features=None, index: int | None = None):
    """Exact gradient of the measured-qubit Z expectations in one run: rows j
    and P + j move parameter j (only ``index`` unless it is None) by +pi/2 and
    -pi/2, and half their difference is its derivative. A batch of parameter
    vectors (..., P) broadcasts against the features. For one index returns
    (..., n_measured); for index=None the full Jacobian stacked over parameters.
    """
    params, features, batch = _checked(circuit, params, features)
    p = circuit.n_params
    if index is not None and not 0 <= index < p:
        raise CircuitError(f"parameter index {index} out of range")
    shifts = np.pi / 2 * np.eye(p)[slice(None) if index is None else [index]]
    shifts = np.stack([shifts, -shifts])
    rows = params + shifts.reshape(shifts.shape[:2] + (1,) * len(batch) + (p,))
    plus, minus = measured_expectations(circuit, run(circuit, rows, features))
    grad = (plus - minus) / 2.0
    return grad if index is None else grad[0]


def prob_grad(circuit: Circuit, params, features=None):
    """Basis probabilities (batch..., 2**n) and their Jacobian (n_params, batch...,
    2**n) by the adjoint method (Jones & Gacon 2020): the forward keeps the state s_g
    after each trainable rotation g, basis costates A_k = <k| U_after_g run back
    through the transposed gates, and dp_k = Re(conj(psi_k) <A_k| R(pi) |s_g>)."""
    sweep = _sweep(circuit, params, features)
    batch, state = next(sweep)
    n, (dim, rows) = circuit.n_qubits, state.shape
    steps, kept = [], []  # each gate with its half-angle cosine and sine; the s_g
    for g, c, sn, state in sweep:
        steps.append((g, c, sn))
        if isinstance(g, Rot) and g.feature is None:
            kept.append(state)
    grad = np.empty((len(kept), dim, rows))
    costate = np.repeat(np.eye(dim, dtype=complex), rows, axis=1)  # A[j, k * rows + r]
    for g, c, sn in reversed(steps):
        if isinstance(g, CNot):
            costate = costate[_cx_perm(n, g.control, g.target)]
            continue
        if g.feature is None:
            ds = _apply_rot(kept.pop(), n, g.qubit, g.axis, 0.0, 1.0)  # dR(t)/dt = R(t + pi) / 2
            dpsi = np.einsum("jkr,jr->kr", costate.reshape(dim, dim, rows), ds)
            grad[len(kept)] = (state.conj() * dpsi).real
        costate = _apply_rot(costate, n, g.qubit, g.axis, np.tile(c, dim),
                             np.tile(-sn if g.axis == "y" else sn, dim))  # RY(t)^T = RY(-t)
    return (probabilities(np.ascontiguousarray(state.T)).reshape(batch + (dim,)),
            np.moveaxis(grad, 1, -1).reshape((len(grad),) + batch + (dim,)))


# ---------------------------------------------------------------------------
# OpenQASM 3 export


def export_qasm3(circuit: Circuit, params, features=None) -> str:
    """OpenQASM 3.0 text with every rotation bound to a concrete angle."""
    params, features, batch = _checked(circuit, params, features)
    if batch or not (np.isfinite(params).all() and np.isfinite(features).all()):
        raise CircuitError("export binds a single, finite row of parameters and features")
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
# X-string expectation/gradient kernel for training


def _support(gate) -> set[int]:
    return {gate.qubit} if isinstance(gate, Rot) else {gate.control, gate.target}


class _Section:
    """Gates on qubits ``first`` to ``first + k - 1``, run on (rows, 2**k) states,
    whose trainable rotations read ``params[start:]`` in gate order.

    A run of Z encodings is a per-sample phase vector, the Kronecker product of
    its qubits' (exp(-i/2 angle), exp(i/2 angle)) pairs. Any other run is a
    block of RX parameters and CNOTs. A CNOT maps X-strings to X-strings
    (X_c -> X_c X_t, X_t -> X_t), so the RX gate g, moved back through the
    CNOTs before it, is exp(-i t_g/2 X_M) on the block's input for a mask M_g.
    These rotations commute, and the block is its CNOT permutation W after
    them: U = W Hn diag(exp(-i/2 t @ Zm)) Hn, with Hn the Hadamard transform
    and Zm[g, i] = (-1) ** popcount(i & M_g). Every block repeats one gate
    list, so all share W and the masks, and d/dt_g = Im tr(X_M Y) reads each
    derivative from the Y of the block's input alone.
    """

    def __init__(self, gates, first: int, k: int, start: int):
        self.k, self.dim = k, 1 << k
        self.runs = []  # (is encoding, index of its phase vector or block)
        enc = []  # per encoding run: (k, features) -> each qubit's angle
        blocks = []  # per block: its gates, the same in every block
        for encoding, run in groupby(gates, lambda g: isinstance(g, Rot)
                                     and g.axis == "z" and g.feature is not None):
            self.runs.append((encoding, len(enc) if encoding else len(blocks)))
            if encoding:
                enc.append(np.zeros((k, N_FEATURES)))
                for g in run:
                    enc[-1][g.qubit - first, g.feature] += g.scale
                continue
            blocks.append(tuple(run))
            if blocks[-1] != blocks[0]:
                raise CircuitError("every block of a section repeats its first block's gates")
        self._wperm, before, masks = np.arange(self.dim), [], []
        for g in blocks[0]:
            if isinstance(g, CNot):
                c, t = g.control - first, g.target - first
                before.append((1 << (k - 1 - c), 1 << (k - 1 - t)))
                self._wperm = self._wperm[_cx_perm(k, c, t)]
            elif g.axis == "x" and g.feature is None:
                mask = 1 << (k - 1 - (g.qubit - first))
                for control, target in reversed(before):  # X_c -> X_c X_t
                    mask ^= target if mask & control else 0
                masks.append(mask)
            else:
                raise CircuitError(f"a block holds RX parameters and CNOTs, not {g}")
        # rows q * runs + r: the angles of qubit q in all runs are one contiguous row
        self._enc = np.stack(enc, 1).reshape(-1, N_FEATURES) if enc else None
        # Hn without its 2**(-k/2) factor: H[i, j] = (-1) ** popcount(i & j)
        self._h = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * k)
        self._zm = self._h[masks]
        self._rows = np.arange(self.dim)
        self._flips = np.array(masks)[:, None] ^ self._rows  # X_M as a row gather, per mask
        self._n_blocks = len(blocks)
        self.params = slice(start, start + len(blocks) * len(masks))

    def phases(self, x) -> np.ndarray:
        """(B, encoding runs, 2**k) phase vectors of the feature rows ``x``: each
        basis state's phase is the product of its qubits' exp(-/+ i/2 angle),
        built qubit by qubit, left to right, as (2**q, runs * B) arrays."""
        if self._enc is None:
            return np.empty((len(x), 0, self.dim), complex)
        bit0 = np.exp(-0.5j * (self._enc @ x.T)).reshape(self.k, 1, -1)
        pairs = np.concatenate([bit0, bit0.conj()], 1)  # (k, 2, runs * B): |0>, |1>
        v = pairs[0]
        for pair in pairs[1:]:
            v = (v[:, None] * pair).reshape(-1, v.shape[-1])
        return v.reshape(self.dim, -1, len(x)).T

    def compile(self, params) -> None:
        """Set ``blocks``, the (blocks, 2**k, 2**k) stack of block unitaries at
        these parameters: W Hn diag(exp(-i/2 t @ Zm)) Hn, block by block."""
        phase = np.exp(-0.5j * (params[self.params].reshape(self._n_blocks, -1) @ self._zm))
        self.blocks = ((self._h * (phase / self.dim)[:, None, :]) @ self._h).take(self._wperm, 1)

    def run(self, state, phases):
        """The state after the section, and the input state of each block."""
        inputs = []
        for encoding, j in self.runs:
            if encoding:
                state = state * phases[:, j]
            else:
                inputs.append(state)
                state = state @ self.blocks[j].T
        return state, inputs

    def pullback(self, lam, inputs, phases, grad) -> np.ndarray:
        """The costate before the section from the costate after it and the block
        inputs of its forward, adding the section's gradient into ``grad`` (the
        adjoint method). With Y = sum_b u_b lam_b^+ of a block's input rows, its
        rotation g adds Im tr(X_M Y) = Im sum_i Y[i ^ M, i]: one gather over
        every block's Y."""
        y = np.empty((self._n_blocks, self.dim, self.dim), complex)
        lam = lam.conj()  # carried conjugated: U^+ pulls it back as a product with U
        for encoding, j in reversed(self.runs):
            if encoding:
                lam = lam * phases[:, j]
                continue
            lam = lam @ self.blocks[j]
            y[j] = inputs[j].T @ lam
        grad[self.params] += y[:, self._flips, self._rows].sum(-1).imag.ravel()
        return lam.conj()


class ModelKernel:
    """Batched forward and adjoint gradients for the full model.

    The gates of ``build_model_circuit`` fall into four runs by the registers
    they touch: the film and main sections, the bridge CNOTs and a final block
    on the main qubits. The bridge flips the main register by a mask F(a) that
    depends only on the film basis state a, and the final block and the Z
    readouts touch the main qubits alone, so <Z_k> = sum_F P_F <Z_k>(U X_F m),
    with P_F the film's probability of the states a with F(a) = F: the final
    block runs once per distinct mask on the main state, never on the joint
    one. Blocks are compiled once per distinct parameter vector. The last
    forward is kept with its feature rows, states, phases, block input states
    and readout (references, no copies), and serves every ``expectations`` and
    ``grad`` call at the same parameter values and feature rows, so a training
    step simulates the circuit once and never un-applies a block.
    ``param_shift_grad`` is the reference for ``grad``.
    """

    def __init__(self):
        circuit = build_model_circuit()
        f, m = N_EPI, N_BLOCKS
        film = set(range(f))
        self.film_gates, self.main_gates, bridge, final = (tuple(run) for _, run in groupby(
            circuit.gates, lambda g: (bool(_support(g) & film), bool(_support(g) - film))))
        self.tail_gates = bridge + final
        self.n_params = circuit.n_params
        states, flip = np.arange(1 << f), np.zeros(1 << f, int)  # F(a) of each film state a
        for g in bridge:
            if g.control not in film:
                raise CircuitError(f"a bridge CNOT is controlled by a film qubit, not {g}")
            flip ^= (states >> (f - 1 - g.control) & 1) << (m - 1 - (g.target - f))
        masks, self._mask_of = np.unique(flip, return_inverse=True)
        self._members = (self._mask_of == np.arange(len(masks))[:, None]).astype(float)
        self._flips = masks[:, None] ^ np.arange(1 << m)  # X_F as a row gather, per mask
        film_section = _Section(self.film_gates, 0, f, 0)
        main_section = _Section(self.main_gates, f, m, film_section.params.stop)
        self._sections = (film_section, main_section,
                          _Section(final, f, m, main_section.params.stop))
        self._zsigns = np.stack([_z_signs(m, q - f) for q in circuit.measured])
        self._compiled_for = None  # a copy of the parameters the blocks were compiled for
        self._forward = None  # the last forward, as _run returns it

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
        """Film and main states of the feature rows ``x``, the final states
        (B, masks, 2**5) of each flip of the main state, each mask's film
        weight P_F (B, masks), each section's phase vectors and block inputs,
        and the (B, 5) readout: the last forward if it ran at these parameter
        values on these rows, else a new one, kept in its place."""
        # keyed on the values, not the array: optimizers update it in place
        compiled = self._compiled_for is not None and np.array_equal(self._compiled_for, params)
        if compiled and self._forward is not None and np.array_equal(self._forward[0], x):
            return self._forward
        self._forward = None  # hold one forward at a time
        if not compiled:
            for section in self._sections:
                section.compile(params)
            self._compiled_for = params.copy()
        phases = [section.phases(x) for section in self._sections]
        film, main, tail = self._sections
        f, f_in = film.run(zero_state(film.k, (len(x),)), phases[0])
        m, m_in = main.run(zero_state(main.k, (len(x),)), phases[1])
        final, t_in = tail.run(m[:, self._flips].reshape(-1, tail.dim), phases[2])
        final = final.reshape(len(x), -1, tail.dim)
        weights = probabilities(f) @ self._members.T
        readout = (weights[:, :, None] * (probabilities(final) @ self._zsigns.T)).sum(1)
        self._forward = (x, f, m, final, weights, phases, (f_in, m_in, t_in), readout)
        return self._forward

    def expectations(self, params, features, epi) -> np.ndarray:
        """(B, 5) Z expectations of the five main qubits."""
        return self._run(*self._inputs(params, features, epi))[-1].copy()

    def grad(self, params, features, epi, upstream) -> np.ndarray:
        """Sum over the batch of upstream[b, k] * d<Z_k>_b / d theta.

        ``upstream`` is (B, m); returns (n_params,). Exact adjoint gradient.
        """
        _, f, _, final, weights, phases, (f_in, m_in, t_in), _ = self._run(
            *self._inputs(params, features, epi))
        film, main, tail = self._sections
        grad = np.zeros(self.n_params)
        obs = (np.asarray(upstream, float) @ self._zsigns)[:, None]  # sum_k upstream_k Z_k
        lam = tail.pullback((weights[:, :, None] * obs * final).reshape(-1, tail.dim),
                            t_in, phases[2], grad)
        lam = lam.reshape(final.shape)  # the main costate undoes each flip: sum_F X_F lam_F
        main.pullback(sum(lam[:, j, flip] for j, flip in enumerate(self._flips)), m_in,
                      phases[1], grad)
        # P_F moves with the film state: film state a reads its mask's <obs>
        reads = (probabilities(final) * obs).sum(-1)
        film.pullback(reads[:, self._mask_of] * f, f_in, phases[0], grad)
        return grad
