"""Model diagnostics on a three-qubit miniature of the hybrid circuit.

The mini circuit keeps the two epicenter qubits (entangler layers with N
sublayers, K coordinate reuploads) and replaces the main section by a single
qubit with four Y-rotation parameters around two encoded features. Two
studies run on it: the Fourier spectrum of its output as a function of the
epicenter coordinates, and the Fisher information of its basis-state
distribution. Neither simulates all three qubits. The Fourier study reads only
qubit 0, which no gate on the main qubit reaches, so it simulates the
epicenter section alone. The Fisher study splits the circuit at the bridge,
where the distribution factorizes: the epicenter section on its two qubits,
and the main qubit on its own at either parity of the section's outcome.
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


def _sections(config: MiniConfig) -> tuple[Circuit, Circuit]:
    """The mini circuit split at its bridge: the epicenter section, its leading
    gates on qubits 0 and 1, as a two-qubit circuit of features (x, y); and the
    rotations after it, all on qubit 2, as a one-qubit circuit of all four
    features, without the bridge CNOTs between its last two rotations."""
    gates = build_mini_circuit(config).gates
    film = tuple(takewhile(
        lambda g: (g.qubit if isinstance(g, Rot) else max(g.control, g.target)) < 2, gates))
    main = tuple(Rot(g.axis, 0, g.feature, g.scale) for g in gates[len(film):]
                 if isinstance(g, Rot))
    return (Circuit(2, film, n_features=2, measured=(0, 1)),
            Circuit(1, main, n_features=4, measured=(0,)))


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
    section, main = _sections(config)
    d, m = config.reuploads, 2 * config.reuploads + 1
    xs = 2 * np.pi * np.arange(m) / m
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], 1)
    omegas = np.arange(-d, d + 1)
    # c_w = (1/m^2) sum_jk f[j,k] exp(+i(wx x_j + wy y_k))
    dft = np.exp(1j * np.outer(omegas, xs)) / m
    # the whole circuit's draws, so a table is the same function of the generator
    thetas = rng.uniform(0.0, 2 * np.pi, (n_theta, section.n_params + main.n_params))
    thetas = thetas[:, :section.n_params]
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


# per outcome (a, b, c), qubit 0 leading: the main qubit's row at parity s = a xor b
# and its outcome c xor s, as one index 2 s + (c xor s)
_BRIDGE = [0, 1, 3, 2, 3, 2, 0, 1]


def _prob_grad(film: Circuit, main: Circuit, thetas, xs, include_main: bool = True):
    """What ``qsim.prob_grad(build_mini_circuit(config), thetas[:, None], xs)``
    returns, from the two sections ``_sections(config)``: parameters (R, P) and
    features (R, n_x, 4) give the eight basis probabilities (R, n_x, 8) and
    their Jacobian (P, R, n_x, 8); without ``include_main``, only the Jacobian's
    epicenter-section rows, and the main qubit's probabilities come from ``run``.

    The distribution factorizes at the bridge: its CNOTs flip the main qubit
    when the film parity a xor b is 1, and no other gate joins the sections,
    so p(a, b, c) = P(a, b) q_{a xor b}(c), with P the epicenter section's
    distribution and q_s the main qubit's after s flips. As X RY(t) X = RY(-t),
    q_1(c) is q(1 - c) of the main qubit with its final angle negated.
    """
    film_p, film_dp = qsim.prob_grad(film, thetas[:, None, :film.n_params], xs[..., :2])
    # the main qubit's rows (realization, feature row, parity s)
    main_theta = np.repeat(thetas[:, None, None, film.n_params:], 2, axis=2)
    main_theta[..., 1, -1] *= -1
    if include_main:
        main_p, main_dp = qsim.prob_grad(main, main_theta, xs[:, :, None])
        main_dp[-1, ..., 1, :] *= -1  # at parity 1 the final rotation turns by minus its angle
        dq = main_dp.reshape(main_dp.shape[:3] + (4,))[..., _BRIDGE]
    else:
        main_p = qsim.probabilities(qsim.run(main, main_theta, xs[:, :, None]))
    q = main_p.reshape(xs.shape[:2] + (4,))[..., _BRIDGE]
    film_p, film_dp = (np.repeat(a, 2, -1) for a in (film_p, film_dp))  # P(a, b) per (a, b, c)
    return film_p * q, np.concatenate([film_dp * q, film_p * dq]) if include_main else film_dp * q


def fisher_matrix(config: MiniConfig, n_x: int, n_theta: int, rng: np.random.Generator,
                  include_main: bool = False) -> FisherResult:
    """Fisher information of the basis-state distribution P(y | x, theta).

    Gaussian feature draws enter as raw angles; the expectation over targets
    sums all eight basis states exactly; scores use adjoint probability
    gradients. Averaged over uniform parameter realizations. The distribution
    factorizes at the bridge, so a chunk of realizations is one ``prob_grad``
    of the two-qubit epicenter section and one of the one-qubit main section
    (``_prob_grad``), a ``run`` of it if the matrix leaves its parameters out;
    the epicenter section's basis costates, the largest
    array, hold at most about ``RUN_AMPLITUDES`` amplitudes (one realization
    if it alone is larger). By default the matrix covers the epicenter-section
    parameters only (include_main adds the four main-qubit parameters).
    """
    if n_x < 1 or n_theta < 1:
        raise ValueError("sample counts must be at least 1")
    sections = _sections(config)
    n_all = sum(c.n_params for c in sections)
    draws = [(rng.uniform(0.0, 2 * np.pi, n_all), rng.normal(0.0, 1.0, (n_x, 4)))
             for _ in range(n_theta)]  # theta, then x, realization by realization
    thetas, xs = (np.stack(d) for d in zip(*draws))
    # the film sweep's costates are the largest array: 4 x 4 amplitudes per feature row
    step = max(1, RUN_AMPLITUDES // (n_x << 4))
    per_real: list[np.ndarray] = []
    clamped = 0
    for i in range(0, n_theta, step):
        chunk_probs, chunk_dprobs = _prob_grad(*sections, thetas[i:i + step], xs[i:i + step],
                                               include_main)
        # (realizations, parameters, n_x, 8), C-ordered: each realization's block has
        # one layout whatever the chunk, which einsum's sums follow
        chunk_dprobs = np.moveaxis(chunk_dprobs, 1, 0).copy()
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
