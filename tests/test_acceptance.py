"""End-to-end acceptance gate.

Each test exercises one shipping criterion at its stated tolerance and prints
a single pass line (run with -rA or -s to see them all).
"""
import re
import time

import numpy as np
import pytest

import quakeroute.analysis as an
import quakeroute.dyngraph as dg
import quakeroute.features as ft
import quakeroute.hybrid as hy
import quakeroute.neural as nn
import quakeroute.oracle as oc
import quakeroute.qsim as qs
from conftest import random_connected_graph
from helpers import (base_weights, brute_force_shortest, oracle_expectations,
                     replay_trajectory)


def _ok(num: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: PASS{suffix}")


def test_01_oracle_exactness_vs_enumeration():
    start_time = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(3, 10)))
        w = rng.uniform(0.1, 5.0, g.n_edges)
        s, t = rng.choice(g.n_nodes, 2, replace=False)
        got = oc.dijkstra(g, w, int(s), int(t))
        cost, nodes = brute_force_shortest(g, w, int(s), int(t))
        assert got.nodes == nodes
        assert got.total_cost == cost  # exact, same summation order
    elapsed = time.time() - start_time
    assert elapsed < 10.0
    _ok(1, "oracle exactness on 100 random graphs", f"{elapsed:.2f}s")


def test_02_environment_replay_fidelity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(10):
        g = dg.synth_city(int(rng.integers(4, 8)), int(rng.integers(4, 8)),
                          seed=int(rng.integers(1 << 31)))
        sc = dg.random_scenario(g, rng)
        state = dg.initial_state(g, [sc], sigma_frac=0.1)
        base = base_weights(g, sc, sigma_frac=0.1)
        got = [state.weights[0].copy()]
        for _ in range(50):
            dg.advance(state)
            got.append(state.weights[0].copy())
        want = replay_trajectory(g, sc.epicenter, sc.exits, base, 50)
        for a, b in zip(got, want):
            worst = max(worst, float(np.abs(a - np.asarray(b)).max()))
    assert worst <= 1e-12
    _ok(2, "weight trajectories match the step-by-step replay",
        f"worst |diff| {worst:.2e}")


def test_03_radius_values_and_cap_respect():
    assert dg.damage_radius(0) == 0.5
    assert dg.exit_radius(0) == 0.0
    rng = np.random.default_rng(99)
    steps_checked = 0
    while steps_checked < 10_000:
        g = dg.synth_city(int(rng.integers(4, 9)), int(rng.integers(4, 9)),
                          seed=int(rng.integers(1 << 31)))
        sc = dg.random_scenario(g, rng)
        state = dg.initial_state(g, [sc], sigma_frac=0.1)
        after_initial = state.weights.copy()
        for _ in range(int(rng.integers(30, 60))):
            before = state.weights.copy()
            dg.advance(state)
            grown = state.weights > before + 1e-15
            # anything the ongoing mechanisms grew stays at or below the
            # loosest cap; only the initial x5 may sit above it, untouched
            assert (state.weights[grown] <= max(dg.BAND_CAPS) + 1e-12).all()
            assert (state.weights >= before - 1e-15).all()
            steps_checked += 1
        above = state.weights > max(dg.BAND_CAPS) + 1e-12
        assert np.array_equal(state.weights[above], after_initial[above])
    _ok(3, "radius constants and band-cap discipline",
        f"{steps_checked} randomized steps")


def test_04_simulator_matches_dense_matrix_oracle():
    rng = np.random.default_rng(11)
    circ = qs.build_model_circuit()
    kernel = qs.ModelKernel()
    worst = 0.0
    for _ in range(20):
        params = rng.uniform(-np.pi, np.pi, 228)
        feats = rng.uniform(0, 1, 34)
        epi = rng.uniform(0, 1, 2)
        got = kernel.expectations(params, feats, epi)[0]
        want = oracle_expectations(circ, params, np.concatenate([feats, epi]))
        worst = max(worst, float(np.abs(got - want).max()))
        state = qs.run(circ, params, np.concatenate([feats, epi]))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-9
    assert worst < 1e-10
    _ok(4, "training-kernel forward vs dense-matrix oracle", f"worst |diff| {worst:.2e}")


def test_05_gradient_parity():
    h = 1e-4
    worst_q = 0.0
    circ = qs.build_model_circuit()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = rng.uniform(-np.pi, np.pi, 228)
        feats = rng.uniform(0, 1, 36)
        jac = qs.param_shift_grad(circ, params, feats)  # (228, 5)
        # central differences from one run over the +h and -h rows of every parameter
        step = h * np.eye(228)
        out = qs.measured_expectations(circ, qs.run(circ, params + [step, -step], feats))
        fd = (out[0] - out[1]) / (2 * h)
        worst_q = max(worst_q, float(np.abs(jac - fd).max()))
    assert worst_q < 1e-5

    net = nn.ClassicalFilmNet(seed=1)
    rng = np.random.default_rng(42)
    x = rng.uniform(0, 1, (6, 34))
    epi = rng.uniform(0, 1, (6, 2))
    y, mask = rng.integers(0, 5, 6), np.ones((6, 5), bool)
    loss, dlogits = nn.cross_entropy(net.forward(x, epi), y, mask)
    grads = net.backward(dlogits)
    worst_c = 0.0
    for name, p in net.params.items():
        flat = p.ravel()
        for k in rng.choice(flat.size, size=min(10, flat.size), replace=False):
            old = flat[k]
            flat[k] = old + h
            lp, _ = nn.cross_entropy(net.forward(x, epi), y, mask)
            flat[k] = old - h
            lm, _ = nn.cross_entropy(net.forward(x, epi), y, mask)
            flat[k] = old
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), 1e-8)
            worst_c = max(worst_c, abs(grads[name].ravel()[k] - fd) / denom)
    assert worst_c < 1e-4
    _ok(5, "parameter-shift and backprop match finite differences",
        f"quantum {worst_q:.2e} abs, classical {worst_c:.2e} rel")


def test_06_fourier_truncation_and_symmetry():
    start_time = time.time()
    for k in (1, 2, 3):
        cfg = an.MiniConfig(sublayers=1, reuploads=k)
        circuit = an.build_mini_circuit(cfg)
        rng = np.random.default_rng(1000 + k)
        m = 2 * (2 * k) + 1  # oversampled: resolves beyond-degree leakage
        xs = 2 * np.pi * np.arange(m) / m
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel(),
                         np.zeros(m * m), np.zeros(m * m)], axis=1)
        wide = np.arange(-2 * k, 2 * k + 1)
        dft = np.exp(1j * np.outer(wide, xs)) / m
        n_theta = 1000
        thetas = rng.uniform(0, 2 * np.pi, (n_theta, circuit.n_params))
        beyond = np.abs(wide) > k
        mid = 2 * k  # index of omega = 0 in the wide table
        # one batched run: (draws, grid points) expectations
        fs = qs.expectation_z(qs.run(circuit, thetas[:, None], grid), 0)
        for f in fs:
            table = dft @ f.reshape(m, m) @ dft.T
            assert np.abs(table[beyond, :]).max() < 1e-10
            assert np.abs(table[:, beyond]).max() < 1e-10
            assert np.abs(table - table[::-1, ::-1].conj()).max() < 1e-10
            c00 = table[mid, mid]
            assert abs(c00.imag) < 1e-10 and abs(c00.real) <= 1.0 + 1e-12
    elapsed = time.time() - start_time
    assert elapsed < 120.0
    _ok(6, "Fourier truncation at the reupload degree, 1000 draws per K",
        f"{elapsed:.1f}s")


def test_07_fisher_rank_and_spectrum_trend():
    rng = np.random.default_rng(12345)
    fractions = []
    for n, k in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]:
        cfg = an.MiniConfig(sublayers=n, reuploads=k)
        res = an.fisher_matrix(cfg, n_x=20, n_theta=20, rng=rng)
        f = res.matrix
        assert np.abs(f - f.T).max() < 1e-10
        assert np.linalg.eigvalsh(f).min() > -1e-8
        rep = an.fisher_spectrum(f)
        if n == 1:
            assert rep.rank == cfg.n_film_params
        if (n, k) == (2, 3):
            assert rep.rank == cfg.n_film_params - 4
        fractions.append(rep.near_zero_fraction)
    for a, b in zip(fractions, fractions[1:]):
        assert b >= a - 1e-12  # non-decreasing toward (N=2, K=3)
    _ok(7, "Fisher ranks and near-zero-fraction trend",
        "fractions " + "->".join(f"{x:.2f}" for x in fractions)
        + "; reference endpoints 46%->65%")


@pytest.fixture(scope="module")
def smoke_run():
    """Shared training run for the smoke and head-share criteria."""
    started = time.time()
    graph = dg.synth_city(8, 8, seed=7)
    dataset = ft.generate_dataset(graph, 200, seed=11)
    config = hy.TrainConfig(epochs=100, batch_size=256, seed=0)
    hybrid_model, hybrid_hist = hy.train(dataset, config)
    classical_model, classical_hist = hy.train(
        dataset, hy.TrainConfig(epochs=100, batch_size=256, seed=0,
                                classical_only=True))
    hybrid_report = hy.evaluate(hybrid_model, graph, 50, seed=123)
    classical_report = hy.evaluate(classical_model, graph, 50, seed=123)
    return {
        "elapsed": time.time() - started,
        "hybrid_model": hybrid_model,
        "hybrid_agreement": hybrid_hist[-1]["val_agreement"],
        "classical_agreement": classical_hist[-1]["val_agreement"],
        "hybrid": hybrid_report,
        "classical": classical_report,
    }


def test_08_training_smoke(smoke_run):
    r = smoke_run
    assert r["hybrid_agreement"] >= 0.80
    assert r["hybrid"].arrival_rate >= 0.90
    assert r["elapsed"] < 1800.0
    h, c = r["hybrid"], r["classical"]
    _ok(8, "training smoke on the 8x8 synthetic city",
        f"{r['elapsed'] / 60:.1f} min; "
        f"hybrid: agree {r['hybrid_agreement']:.3f}, arrival "
        f"{h.arrival_rate:.2f}, accuracy {h.mean_accuracy:.3f}, "
        f"better-or-equal {h.better_or_equal_rate:.2f}, share "
        f"{h.quantum_share:.3f} | classical: agree "
        f"{r['classical_agreement']:.3f}, arrival {c.arrival_rate:.2f}, "
        f"accuracy {c.mean_accuracy:.3f}, better-or-equal "
        f"{c.better_or_equal_rate:.2f}, share {c.quantum_share:.3f}")


def test_09_head_share(smoke_run):
    equal = np.ones((5, 10))
    assert hy.quantum_share(equal) == 0.5
    rng = np.random.default_rng(3)
    for _ in range(50):
        assert 0.0 <= hy.quantum_share(rng.normal(0, 2, (5, 10))) <= 1.0
    trained = smoke_run["hybrid"].quantum_share
    assert 0.0 <= trained <= 1.0
    _ok(9, "quantum head share",
        f"trained value {trained:.3f}; reference 0.45(3)")


def test_10_qasm_export_census():
    rng = np.random.default_rng(21)
    circ = qs.build_model_circuit()
    params = rng.uniform(-np.pi, np.pi, 228)
    feats = rng.uniform(0, 1, 36)
    text = qs.export_qasm3(circ, params, feats)
    lines = text.strip().splitlines()
    census = circ.census()
    emitted = {"rx": 0, "ry": 0, "rz": 0, "cx": 0}
    stmt = re.compile(r"^(r[xyz])\(|^(cx) ")
    for line in lines:
        m = stmt.match(line)
        if m:
            emitted[m.group(1) or m.group(2)] += 1
    assert emitted == census
    assert lines[0] == "OPENQASM 3.0;"
    assert lines[1] == 'include "stdgates.inc";'
    assert lines[2] == "qubit[7] q;" and lines[3] == "bit[5] c;"
    assert sum(1 for l in lines if re.match(r"^c\[\d\] = measure q\[\d\];", l)) == 5
    _ok(10, "OpenQASM 3 export census",
        f"{sum(census.values())} gate statements in {len(lines)} lines; "
        "reference hardware transpilation: 861 lines")


def test_11_metric_formulas():
    assert oc.path_accuracy(10.0, 20.0) == pytest.approx(0.5)
    assert oc.path_accuracy(7.0, 7.0) == 1.0
    assert oc.path_accuracy(20.0, 10.0) == pytest.approx(0.0)
    assert oc.arrival_rate([True] * 19 + [False]) == pytest.approx(0.95)
    assert oc.arrival_rate([True, False, False, True]) == 0.5
    assert oc.better_or_equal_rate([(3.0, 2.0), (3.0, 4.0)]) == 0.5
    _ok(11, "metric formulas")
