import numpy as np
import pytest

import quakeroute.analysis as an
import quakeroute.qsim as qs
from helpers import shift_prob_grad


def test_mini_config_counts():
    for n in (1, 2):
        for k in (1, 2, 3):
            cfg = an.MiniConfig(sublayers=n, reuploads=k)
            assert cfg.n_film_params == 2 * n * (k + 1)
            circ = an.build_mini_circuit(cfg)
            assert circ.n_qubits == 3
            assert circ.n_params == cfg.n_film_params + 4
    with pytest.raises(ValueError):
        an.MiniConfig(sublayers=0, reuploads=1)


def test_fourier_one_frequency_hand_circuit():
    """RY(pi/2) RZ(x) RY(pi/2) gives <Z> = -cos x, i.e. c_{+-1} = -1/2."""
    circ = qs.Circuit(1, (qs.Rot("y", 0), qs.Rot("z", 0, 0), qs.Rot("y", 0)), 1, measured=(0,))
    d = 1
    m = 2 * d + 1
    xs = 2 * np.pi * np.arange(m) / m
    f = np.array([float(qs.expectation_z(qs.run(circ, [np.pi / 2] * 2, np.array([x])), 0))
                  for x in xs])
    omegas = np.arange(-d, d + 1)
    dft = np.exp(1j * np.outer(omegas, xs)) / m
    coeffs = dft @ f
    assert abs(coeffs[0] - (-0.5)) < 1e-10   # omega = -1
    assert abs(coeffs[1]) < 1e-10            # omega = 0
    assert abs(coeffs[2] - (-0.5)) < 1e-10   # omega = +1


def _grid_table(circuit, theta, m, omegas, main=None):
    """The coefficients at ``omegas`` of the DFT of <Z_0> on an m-point grid per axis,
    with the main features at ``main`` per grid point, or 0."""
    xs = 2 * np.pi * np.arange(m) / m
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    main = np.zeros((m * m, 2)) if main is None else main
    grid = np.column_stack([gx.ravel(), gy.ravel(), main])
    f = np.asarray(qs.expectation_z(qs.run(circuit, theta, grid), 0))
    dft = np.exp(1j * np.outer(omegas, xs)) / m
    return dft @ f.reshape(m, m) @ dft.T


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fourier_truncation_and_symmetry(k):
    cfg = an.MiniConfig(sublayers=1, reuploads=k)
    samples = an.sample_fourier(cfg, 40, np.random.default_rng(42))
    # a 4k+1-point grid resolves frequencies up to 2k: none leaks beyond k
    circuit = an.build_mini_circuit(cfg)
    rng2 = np.random.default_rng(42)
    wide = np.arange(-2 * k, 2 * k + 1)
    beyond = np.abs(wide) > k
    for _ in range(10):
        table = _grid_table(circuit, rng2.uniform(0, 2 * np.pi, circuit.n_params),
                            4 * k + 1, wide)
        assert np.abs(table[beyond, :]).max() < 1e-10
        assert np.abs(table[:, beyond]).max() < 1e-10
    # conjugate symmetry and the bounded constant coefficient on every draw
    flipped = samples.coeffs[:, ::-1, ::-1]
    assert np.abs(samples.coeffs - flipped.conj()).max() < 1e-10
    c00 = samples.coeffs[:, k, k]
    assert np.abs(c00.imag).max() < 1e-10
    assert (np.abs(c00.real) <= 1.0 + 1e-12).all()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fourier_table_matches_a_4k_plus_1_point_grid(k):
    """The 2K+1-point table is exact: the same draws through the whole
    three-qubit circuit on a 4K+1-point grid give the same coefficients for
    |omega| <= K. With random non-zero main features at every grid point they
    still do: no gate after the epicenter section reaches <Z_0>."""
    m, rng = 4 * k + 1, np.random.default_rng(11)
    for n in (1, 2):
        cfg = an.MiniConfig(sublayers=n, reuploads=k)
        samples = an.sample_fourier(cfg, 10, np.random.default_rng(7))
        circuit = an.build_mini_circuit(cfg)
        thetas = np.random.default_rng(7).uniform(0.0, 2 * np.pi, (10, circuit.n_params))
        for theta, table in zip(thetas, samples.coeffs):
            for main in (None, rng.uniform(0.5, 2 * np.pi - 0.5, (m * m, 2))):
                oversampled = _grid_table(circuit, theta, m, samples.omegas, main)
                assert np.abs(oversampled - table).max() < 1e-12


def test_violin_csv(tmp_path):
    cfg = an.MiniConfig(sublayers=1, reuploads=1)
    samples = an.sample_fourier(cfg, 3, np.random.default_rng(1))
    path = tmp_path / "violin.csv"
    an.write_violin_csv(samples, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sample,omega_x,omega_y,real,imag"
    assert len(lines) == 1 + 3 * 3 * 3


def test_fisher_symmetric_psd_all_configs():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        for k in (1, 2, 3):
            cfg = an.MiniConfig(sublayers=n, reuploads=k)
            res = an.fisher_matrix(cfg, n_x=6, n_theta=3, rng=rng)
            f = res.matrix
            assert f.shape == (cfg.n_film_params,) * 2
            assert np.abs(f - f.T).max() < 1e-10
            ev = np.linalg.eigvalsh(f)
            assert ev.min() > -1e-8


def test_fisher_rank_pattern():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        cfg = an.MiniConfig(sublayers=1, reuploads=k)
        res = an.fisher_matrix(cfg, n_x=10, n_theta=8, rng=rng)
        rep = an.fisher_spectrum(res.matrix)
        assert rep.rank == cfg.n_film_params
    cfg = an.MiniConfig(sublayers=2, reuploads=3)
    res = an.fisher_matrix(cfg, n_x=10, n_theta=8, rng=rng)
    rep = an.fisher_spectrum(res.matrix)
    assert rep.rank == cfg.n_film_params - 4


def test_fisher_inert_parameter_row_is_zero():
    """A parameter whose rotation only turns the global phase, an RZ on a qubit
    still in |0>, contributes nothing: its Fisher row and column vanish."""
    circ = qs.Circuit(2, (
        qs.Rot("y", 0),
        qs.Rot("z", 1),
        qs.CNot(0, 1),
        qs.Rot("y", 1),
    ), 1, measured=(0, 1))
    rng = np.random.default_rng(5)
    f = np.zeros((3, 3))
    for _ in range(4):
        theta = rng.uniform(0, 2 * np.pi, 3)
        x = rng.normal(0, 1, (5, 1))
        probs, dp = qs.prob_grad(circ, theta, x)
        f += np.einsum("ixy,jxy->ij", dp / np.maximum(probs, 1e-12), dp) / len(x)
    assert np.abs(f[1, :]).max() < 1e-12
    assert np.abs(f[:, 1]).max() < 1e-12
    assert f[0, 0] > 1e-3 and f[2, 2] > 1e-3


def test_the_sections_give_the_whole_circuits_distribution():
    """The bridge split reproduces the three-qubit probabilities and Jacobian
    outcome by outcome; the Fisher matrix and its clamp count sum over the main
    qubit's outcome at each film parity, so they cannot see that order."""
    for n, k in ((1, 1), (2, 3)):
        cfg, rng = an.MiniConfig(n, k), np.random.default_rng(n + k)
        circ = an.build_mini_circuit(cfg)
        thetas, xs = rng.uniform(0, 2 * np.pi, (3, circ.n_params)), rng.normal(0, 1, (3, 5, 4))
        probs, dprobs = an._prob_grad(*an._sections(cfg), thetas, xs)
        want, dwant = qs.prob_grad(circ, thetas[:, None], xs)
        assert probs.shape == want.shape and dprobs.shape == dwant.shape
        assert np.abs(probs - want).max() < 1e-14 and np.abs(dprobs - dwant).max() < 1e-14


class _ZeroEveryOtherTheta:
    """Draws like its generator, but every other parameter vector is all zeros,
    which leaves the circuit in |000>: seven of the eight basis states have
    probability 0 and hit the floor."""

    def __init__(self, seed):
        self.rng, self.thetas = np.random.default_rng(seed), 0

    def uniform(self, low, high, size):
        self.thetas += 1
        return self.rng.uniform(low, high, size) * (self.thetas % 2)

    def normal(self, loc, scale, size):
        return self.rng.normal(loc, scale, size)


@pytest.mark.parametrize("config", [(n, k, False, False) for n in (1, 2) for k in (1, 2, 3)]
                         + [(1, 3, True, False), (1, 2, False, True), (2, 3, True, True)])
def test_fisher_matrix_matches_parameter_shift_scores(config):
    """The benchmark's seven Fisher sweeps, film-only and full, against scores
    from the two-term shift rule on the same draws of the whole three-qubit
    circuit. The last two draw every other parameter vector as zeros, so the
    probability floor and its clamp count meet the reference too."""
    n, k, include_main, zeros = config
    def draws():
        return _ZeroEveryOtherTheta(n + k) if zeros else np.random.default_rng(n + k)
    res = an.fisher_matrix(an.MiniConfig(n, k), n_x=5, n_theta=4, rng=draws(),
                           include_main=include_main)
    circ, rng, clamped = an.build_mini_circuit(an.MiniConfig(n, k)), draws(), 0
    for got in res.per_realization:
        theta, x = rng.uniform(0, 2 * np.pi, circ.n_params), rng.normal(0, 1, (5, 4))
        probs = qs.probabilities(qs.run(circ, theta, x))
        clamped += int((probs < 1e-12).sum())
        dp = shift_prob_grad(circ, theta, x)[:res.n_params]
        want = np.einsum("ixy,jxy->ij", dp / np.maximum(probs, 1e-12), dp) / len(x)
        # a zero realization's matrix is zero on both sides
        assert np.array_equal(got, want) or np.abs(got - want).max() < 1e-12 * np.abs(want).max()
    assert res.clamped == clamped and (clamped > 0) == zeros


def test_fisher_matrix_is_the_bitwise_mean_of_its_realizations():
    for seed, (n, k) in enumerate(((1, 1), (1, 2), (1, 3), (2, 3))):
        for include_main in (False, True):
            res = an.fisher_matrix(an.MiniConfig(n, k), n_x=5, n_theta=4,
                                   rng=np.random.default_rng(seed), include_main=include_main)
            assert np.array_equal(res.matrix, np.mean(res.per_realization, axis=0))
            assert np.array_equal(res.matrix, res.matrix.T)


def _count_calls(monkeypatch, name: str = "run") -> list:
    calls = []
    real = getattr(qs, name)
    monkeypatch.setattr(qs, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_fisher_sweep_is_one_prob_grad_per_chunk(monkeypatch):
    """Per chunk one ``prob_grad`` of the two-qubit epicenter section and one of
    the one-qubit main section, which return the probabilities too: no ``run``,
    and nothing simulates all three qubits."""
    runs, grads = _count_calls(monkeypatch), _count_calls(monkeypatch, "prob_grad")
    config = an.MiniConfig(sublayers=2, reuploads=3)  # film costates: 5 rows * 4 * 4 amplitudes
    res = an.fisher_matrix(config, n_x=5, n_theta=4, rng=np.random.default_rng(4),
                           include_main=True)
    assert res.matrix.shape == (20, 20) and not runs
    assert [args[0].n_qubits for args in grads] == [2, 1]
    grads.clear()
    monkeypatch.setattr(an, "RUN_AMPLITUDES", 2 * 80)
    an.fisher_matrix(config, n_x=5, n_theta=4, rng=np.random.default_rng(4), include_main=True)
    assert [args[0].n_qubits for args in grads] == [2, 1, 2, 1] and not runs


def test_film_only_fisher_runs_no_main_section_prob_grad(monkeypatch):
    """Without ``include_main`` a chunk is one ``prob_grad`` of the epicenter
    section and one ``run`` of the main section, whose Jacobian the matrix
    leaves out; the matrix is the full one's film block."""
    config = an.MiniConfig(sublayers=2, reuploads=3)
    full = an.fisher_matrix(config, n_x=5, n_theta=4, rng=np.random.default_rng(4),
                            include_main=True)
    runs, grads = _count_calls(monkeypatch), _count_calls(monkeypatch, "prob_grad")
    monkeypatch.setattr(an, "RUN_AMPLITUDES", 2 * 80)
    film = an.fisher_matrix(config, n_x=5, n_theta=4, rng=np.random.default_rng(4))
    assert [args[0].n_qubits for args in grads] == [2, 2]
    assert [args[0].n_qubits for args in runs] == [1, 1]
    n = config.n_film_params
    assert np.abs(film.matrix - full.matrix[:n, :n]).max() < 1e-14 * np.abs(film.matrix).max()
    assert film.clamped == full.clamped


def test_fourier_tables_do_not_depend_on_the_chunk_size(monkeypatch):
    config = an.MiniConfig(sublayers=1, reuploads=2)  # 25 grid points * 4: 100 amplitudes a draw
    whole = an.sample_fourier(config, 7, np.random.default_rng(3))
    runs = _count_calls(monkeypatch)
    monkeypatch.setattr(an, "RUN_AMPLITUDES", 3 * 100)
    chunked = an.sample_fourier(config, 7, np.random.default_rng(3))
    assert len(runs) == 3  # 3, 3 and 1 draws
    assert chunked.coeffs.tobytes() == whole.coeffs.tobytes()


@pytest.mark.parametrize("include_main", [False, True])
def test_fisher_sweep_does_not_depend_on_the_chunk_size(monkeypatch, include_main):
    config = an.MiniConfig(sublayers=1, reuploads=2)  # film costates: 5 rows * 4 * 4 amplitudes
    whole = an.fisher_matrix(config, 5, 7, _ZeroEveryOtherTheta(8), include_main=include_main)
    runs, grads = _count_calls(monkeypatch), _count_calls(monkeypatch, "prob_grad")
    monkeypatch.setattr(an, "RUN_AMPLITUDES", 3 * 80)
    chunked = an.fisher_matrix(config, 5, 7, _ZeroEveryOtherTheta(8), include_main=include_main)
    # realizations per call; a film-only chunk runs the main section without its gradient
    if include_main:
        assert [len(args[1]) for args in grads] == [3, 3, 3, 3, 1, 1] and not runs
    else:
        assert [len(args[1]) for args in grads] == [len(args[1]) for args in runs] == [3, 3, 1]
    assert whole.clamped > 0 and chunked.clamped == whole.clamped
    assert chunked.matrix.tobytes() == whole.matrix.tobytes()
    assert len(chunked.per_realization) == len(whole.per_realization) == 7
    for a, b in zip(chunked.per_realization, whole.per_realization):
        assert a.tobytes() == b.tobytes()


def test_fisher_spectrum_basics():
    rep = an.fisher_spectrum(np.eye(4))
    assert rep.rank == 4
    assert rep.near_zero_fraction == 0.0
    v = np.array([1.0, 2.0, 3.0])
    rep1 = an.fisher_spectrum(np.outer(v, v))
    assert rep1.rank == 1
    with pytest.raises(ValueError):
        an.fisher_spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_spectrum_csv(tmp_path):
    rep = an.fisher_spectrum(np.diag([3.0, 1.0, 0.0]))
    path = tmp_path / "spec.csv"
    an.write_spectrum_csv(rep, path)
    text = path.read_text()
    assert text.startswith("index,eigenvalue")
    assert "rank,2" in text


def test_block_ratio():
    decoupled = np.block([
        [np.eye(3), np.zeros((3, 2))],
        [np.zeros((2, 3)), 2 * np.eye(2)],
    ])
    assert an.block_ratio(decoupled, 3) == 0.0
    coupled = np.ones((5, 5))
    assert an.block_ratio(coupled, 3) > 0.0


def test_block_ratio_on_mini_circuit():
    """The two sections are exactly decoupled. The bridge makes the distribution
    p(a, b, c) = P(a, b) q_{a xor b}(c), so a film parameter's score is
    dP / P and a main one's dq / q, and the cross block sums
    sum_ab dP(a, b) sum_c dq_{a xor b}(c) = 0, as each q sums to 1."""
    for n, k in ((1, 2), (2, 3)):
        cfg = an.MiniConfig(sublayers=n, reuploads=k)
        res = an.fisher_matrix(cfg, n_x=8, n_theta=4,
                               rng=np.random.default_rng(9), include_main=True)
        assert res.matrix.shape == (an.build_mini_circuit(cfg).n_params,) * 2
        assert an.block_ratio(res.matrix, cfg.n_film_params) < 1e-12
