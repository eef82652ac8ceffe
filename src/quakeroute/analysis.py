"""Model diagnostics on a three-qubit miniature of the hybrid circuit.

The mini circuit keeps the two epicenter qubits (entangler layers with N
sublayers, K coordinate reuploads) and replaces the main section by a single
qubit with four Y-rotation parameters around two encoded features. Two
studies run on it: the Fourier spectrum of its output as a function of the
epicenter coordinates, and the Fisher information of its basis-state
distribution. The Fourier study reads only qubit 0, which no gate on the main
qubit reaches, so it simulates the epicenter section alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path as FilePath

import numpy as np

from . import files, qsim
from .qsim import Circuit, CNot, Rot

RUN_AMPLITUDES = 32768  # a diagnostics run simulates at most about this many amplitudes
RANK_TOL = 1e-8  # eigenvalues above this share of the largest count toward the rank
NEAR_ZERO_TOL = 1e-3  # |eigenvalue| below this share of the largest is near zero


@dataclass(frozen=True)
class MiniConfig:
    """Mini-circuit shape: N entangler sublayers, K coordinate reuploads."""

    sublayers: int = 1
    reuploads: int = 2

    def __post_init__(self):
        if self.sublayers < 1 or self.reuploads < 1:
            raise ValueError("sublayers and reuploads must be positive")

    @property
    def n_film_params(self) -> int:
        """The epicenter section's share of the parameters, which lead the
        circuit's; ``build_mini_circuit(config).n_params`` counts them all."""
        return 2 * self.sublayers * (self.reuploads + 1)


def build_mini_circuit(config: MiniConfig) -> Circuit:
    """Three-qubit diagnostic circuit; features are (x, y, main_0, main_1) raw."""
    qubits = (0, 1)
    gates = qsim.entangler_gates(qubits, config.sublayers)
    for _ in range(config.reuploads):
        gates += [Rot("z", 0, 0), Rot("z", 1, 1)]
        gates += qsim.entangler_gates(qubits, config.sublayers)
    gates += [Rot("y", 2), Rot("z", 2, 2), Rot("y", 2), Rot("z", 2, 3), Rot("y", 2),
              CNot(0, 2), CNot(1, 2), Rot("y", 2)]
    return Circuit(n_qubits=3, gates=tuple(gates), n_features=4, measured=(0, 1, 2))


# ---------------------------------------------------------------------------
# Fourier expressivity


@dataclass
class FourierSamples:
    """Per-draw coefficient tables c[omega_x, omega_y] of the circuit output."""

    coeffs: np.ndarray        # (n_theta, 2d+1, 2d+1) complex
    omegas: np.ndarray        # (2d+1,) integer frequencies -d..d


def sample_fourier(config: MiniConfig, n_theta: int, rng: np.random.Generator) -> FourierSamples:
    """Fourier coefficients of f(x, y) = <Z_0> over random parameter draws.

    f is qubit 0's expectation as a function of the epicenter coordinates.
    K reuploads make f a trigonometric polynomial of integer frequencies up to
    K per axis (Schuld, Sweke & Meyer 2021), so its values on the 2K+1-point
    equidistant grid over [0, 2pi)^2 give the coefficient table exactly, with
    no aliasing. Every gate after the epicenter section (the leading gates on
    qubits 0 and 1) acts on qubit 2 alone or is a CNOT controlled by qubit 0
    or 1, so it commutes with Z_0: that section alone is simulated.
    """
    if n_theta < 1:
        raise ValueError("need at least one parameter draw")
    full = build_mini_circuit(config)
    section = Circuit(2, tuple(takewhile(
        lambda g: (g.qubit if isinstance(g, Rot) else max(g.control, g.target)) < 2, full.gates)),
        n_features=2, measured=(0,))
    d, m = config.reuploads, 2 * config.reuploads + 1
    xs = 2 * np.pi * np.arange(m) / m
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], 1)
    omegas = np.arange(-d, d + 1)
    # c_w = (1/m^2) sum_jk f[j,k] exp(+i(wx x_j + wy y_k))
    dft = np.exp(1j * np.outer(omegas, xs)) / m
    # the whole circuit's draws, so a table is the same function of the generator
    thetas = rng.uniform(0.0, 2 * np.pi, (n_theta, full.n_params))[:, :section.n_params]
    step = max(1, RUN_AMPLITUDES // (len(grid) << section.n_qubits))
    f = np.concatenate([qsim.expectation_z(qsim.run(section, thetas[i:i + step, None], grid), 0)
                        for i in range(0, n_theta, step)])
    coeffs = dft @ f.reshape(n_theta, m, m) @ dft.T
    return FourierSamples(coeffs=coeffs, omegas=omegas)


def write_violin_csv(samples: FourierSamples, path: str | FilePath) -> None:
    """Long-format CSV of every coefficient of every draw, for violin plots."""
    files.write_csv(path, ["sample", "omega_x", "omega_y", "real", "imag"],
                    ([r, int(wx), int(wy), repr(float(c.real)), repr(float(c.imag))]
                     for r, table in enumerate(samples.coeffs)
                     for wx, row in zip(samples.omegas, table)
                     for wy, c in zip(samples.omegas, row)))


# ---------------------------------------------------------------------------
# Fisher information


@dataclass
class FisherResult:
    """Averaged Fisher matrix plus the per-realization matrices behind it."""

    matrix: np.ndarray
    per_realization: list[np.ndarray]
    clamped: int  # probability floor hits during score computation

    @property
    def n_params(self) -> int:
        return self.matrix.shape[0]


def fisher_matrix(config: MiniConfig, n_x: int, n_theta: int, rng: np.random.Generator,
                  include_main: bool = False) -> FisherResult:
    """Fisher information of the basis-state distribution P(y | x, theta).

    Gaussian feature draws enter as raw angles; the expectation over targets
    sums all eight basis states exactly; scores use adjoint probability
    gradients. Averaged over uniform parameter realizations; a chunk of
    realizations is one ``prob_grad`` (probabilities and Jacobian), whose basis
    costates hold at most about ``RUN_AMPLITUDES`` amplitudes (one realization
    if it alone is larger). By default the matrix covers the epicenter-section
    parameters only (include_main adds the four main-qubit parameters).
    """
    if n_x < 1 or n_theta < 1:
        raise ValueError("sample counts must be at least 1")
    circuit = build_mini_circuit(config)
    n_params = circuit.n_params if include_main else config.n_film_params
    draws = [(rng.uniform(0.0, 2 * np.pi, circuit.n_params), rng.normal(0.0, 1.0, (n_x, 4)))
             for _ in range(n_theta)]  # theta, then x, realization by realization
    thetas, xs = (np.stack(d) for d in zip(*draws))
    # prob_grad's costates are the larger array: 2**n basis rows per feature row
    step = max(1, RUN_AMPLITUDES // (n_x << 2 * circuit.n_qubits))
    per_real: list[np.ndarray] = []
    clamped = 0
    for i in range(0, n_theta, step):
        theta, x = thetas[i:i + step, None], xs[i:i + step]
        chunk_probs, chunk_dprobs = qsim.prob_grad(circuit, theta, x)
        # (realizations, parameters, n_x, 8), C-ordered: each realization's block has
        # the layout of its own prob_grad call, which einsum's sums follow
        chunk_dprobs = np.moveaxis(chunk_dprobs[:n_params], 1, 0).copy()
        for probs, dprobs in zip(chunk_probs, chunk_dprobs):
            clamped += int((probs < 1e-12).sum())
            floor = np.maximum(probs, 1e-12)
            f = np.einsum("ixy,jxy->ij", dprobs / floor, dprobs) / n_x
            per_real.append((f + f.T) / 2)
    avg = np.mean(per_real, axis=0)  # exactly symmetric, as every realization is
    return FisherResult(matrix=avg, per_realization=per_real, clamped=clamped)


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray   # descending
    rank: int
    near_zero_fraction: float


def fisher_spectrum(matrix: np.ndarray) -> SpectrumReport:
    """Eigenvalues, numerical rank and the share of near-zero eigenvalues."""
    matrix = np.asarray(matrix, float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("Fisher matrix must be square")
    if np.abs(matrix - matrix.T).max() > 1e-10:
        raise ValueError("Fisher matrix must be symmetric")
    ev = np.linalg.eigvalsh(matrix)[::-1]
    top = float(ev.max(initial=0.0))
    rank = int(np.sum(ev > RANK_TOL * top)) if top > 0 else 0
    near_zero = float(np.mean(np.abs(ev) < NEAR_ZERO_TOL * max(np.abs(ev).max(), 1e-300)))
    return SpectrumReport(eigenvalues=ev, rank=rank, near_zero_fraction=near_zero)


def write_spectrum_csv(report: SpectrumReport, path: str | FilePath) -> None:
    files.write_csv(path, ["index", "eigenvalue"],
                    [*([i, repr(float(ev))] for i, ev in enumerate(report.eigenvalues)),
                     ["rank", report.rank],
                     ["near_zero_fraction", repr(report.near_zero_fraction)]])


def block_ratio(full_matrix: np.ndarray, n_film: int) -> float:
    """Coupling between the epicenter and main parameter blocks.

    Frobenius norm of the off-diagonal blocks over that of the diagonal
    blocks; 0 means fully decoupled sections.
    """
    f = np.asarray(full_matrix, float)
    off = f[:n_film, n_film:]
    on = np.sqrt(np.linalg.norm(f[:n_film, :n_film]) ** 2
                 + np.linalg.norm(f[n_film:, n_film:]) ** 2)
    return float(np.sqrt(2.0) * np.linalg.norm(off) / on) if on > 0 else 0.0
