import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import quakeroute.qsim as qs
from helpers import (BlockwiseKernel, circuit_unitary, oracle_expectations, oracle_state,
                     shift_prob_grad)


def _one_circuit(n, gates):
    return qs.Circuit(n, tuple(gates), 0, measured=tuple(range(n)))


def _film_circuit():
    """The model's epicenter section as a circuit on its two qubits; its
    trainable rotations read the first 48 of the model's 228 parameters."""
    return qs.Circuit(2, qs.ModelKernel().film_gates, 36, measured=(0, 1))


def test_apply_gate_rx_expectation():
    circ = _one_circuit(1, [qs.Rot("x", 0)])
    for theta in (0.0, 0.3, 1.2, np.pi / 2):
        state = qs.run(circ, [theta])
        assert qs.expectation_z(state, 0) == pytest.approx(
            math.cos(theta), abs=1e-12)


def test_apply_gate_cnot_and_rz():
    circ = _one_circuit(2, [qs.Rot("x", 0), qs.CNot(0, 1)])
    probs = qs.probabilities(qs.run(circ, [np.pi]))  # RX(pi) makes |10>
    assert probs[0b11] == pytest.approx(1.0, abs=1e-12)
    rz = qs.run(_one_circuit(1, [qs.Rot("z", 0)]), [0.77])
    assert abs(rz[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_cnot_same_control_target_rejected():
    with pytest.raises(qs.CircuitError):
        qs.CNot(1, 1)


def test_trainable_rotation_with_a_scale_rejected():
    with pytest.raises(qs.CircuitError, match="trainable"):
        qs.Rot("x", 0, scale=2.0)
    assert qs.Rot("z", 0, 3, scale=2.0).scale == 2.0  # an encoding may scale its feature


def test_bel_layer_identity_and_param_count():
    circ = _one_circuit(2, qs.entangler_gates((0, 1), 4))
    assert circ.n_params == 8  # 4 sublayers x 2 qubits
    assert qs.run(circ, np.zeros(8))[0] == pytest.approx(1.0)
    with pytest.raises(qs.CircuitError):
        qs.run(circ, np.zeros(7))


def test_bel_layer_matches_matrix_oracle():
    rng = np.random.default_rng(0)
    thetas = rng.uniform(-np.pi, np.pi, 12)  # 4 sublayers x 3 qubits
    circ = _one_circuit(3, qs.entangler_gates((0, 1, 2), 4))
    want = oracle_state(circ, thetas)
    assert np.allclose(qs.run(circ, thetas), want, atol=1e-12)


def test_film_section_basics():
    circ = _film_circuit()
    assert sum(isinstance(g, qs.Rot) and g.feature is None for g in circ.gates) == 48
    assert circ.n_params == 48
    out = qs.run(circ, np.zeros(48), np.zeros(36))
    assert out[0] == pytest.approx(1.0)
    with pytest.raises(qs.CircuitError):
        qs.run(circ, np.zeros(47), np.zeros(36))


def test_film_section_output_is_low_degree_trig_poly():
    """The circuit outputs as a function of x_epi have harmonics only up to
    the number of reuploads."""
    rng = np.random.default_rng(3)
    cfg = qs.ModelConfig()
    params = rng.uniform(-np.pi, np.pi, cfg.n_params)
    main = rng.uniform(0, 1, 34)
    m = 16  # > 2*5+1 samples; inputs scaled so x pi spans the full torus
    xs = np.arange(m) / m * 2.0
    epi = np.stack([xs, np.full(m, 0.3)], axis=1)
    vals = qs.ModelKernel().expectations(params, np.tile(main, (m, 1)), epi)
    spec = np.fft.fft(vals, axis=0) / m
    freqs = np.fft.fftfreq(m, d=1 / m)
    high = np.abs(freqs) > cfg.reuploads
    assert np.abs(spec[high]).max() < 1e-10
    assert np.abs(spec[np.abs(freqs) == cfg.reuploads]).max() > 1e-6


def test_main_section_basics_and_padding():
    circ = qs.build_model_circuit()
    main = set(circ.measured)
    enc = [g for g in circ.gates
           if isinstance(g, qs.Rot) and g.axis == "z" and g.qubit in main]
    # 7 subvectors x 5 qubits, less the one slot past the last feature: no padding gate
    assert len(enc) == 34
    assert [g.feature for g in enc] == list(range(34))


def test_model_parameters_split_by_section_in_gate_order():
    cfg = qs.ModelConfig()
    kernel = qs.ModelKernel()
    final = kernel.tail_gates
    counts = [sum(isinstance(g, qs.Rot) and g.feature is None for g in gates)
              for gates in (kernel.film_gates, kernel.main_gates, final)]
    assert counts == [48, 160, 20]
    assert counts == [cfg.n_film_params, cfg.n_main_params, cfg.n_final_params]
    assert [s.params for s in kernel._sections] == [slice(0, 48), slice(48, 208),
                                                   slice(208, 228)]


def test_main_section_matches_matrix_oracle():
    rng = np.random.default_rng(5)
    kernel = qs.ModelKernel()
    circ = qs.Circuit(7, kernel.main_gates, 36, measured=tuple(range(2, 7)))
    params = rng.uniform(-np.pi, np.pi, 228)[48:208]  # the main section's parameters
    feats = rng.uniform(0, 1, 36)
    want = oracle_state(circ, params, feats)
    assert np.allclose(qs.run(circ, params, feats), want, atol=1e-11)


def test_model_config_counts():
    cfg = qs.ModelConfig()
    assert cfg.n_film_params == 48
    assert cfg.n_main_params == 160
    assert cfg.n_final_params == 20
    assert cfg.n_params == 228


def test_model_config_has_no_settable_value():
    with pytest.raises(TypeError):
        qs.ModelConfig(sublayers=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        qs.ModelConfig().reuploads = 3
    with pytest.raises(TypeError):
        qs.ModelKernel(qs.ModelConfig())


def test_film_qubit_q_encodes_epicenter_coordinate_q():
    """x_epi (feature 34) goes only to film qubit 0 and y_epi (feature 35) only
    to film qubit 1, each ``reuploads`` times."""
    cfg = qs.ModelConfig()
    encodings = [(g.feature, g.qubit) for g in qs.build_model_circuit().gates
                 if isinstance(g, qs.Rot) and g.feature is not None and g.feature >= 34]
    assert sorted(encodings) == [(34, 0)] * cfg.reuploads + [(35, 1)] * cfg.reuploads


def test_full_forward_zero_everything():
    out = qs.ModelKernel().expectations(np.zeros(228), np.zeros(34), np.zeros(2))
    assert out.shape == (1, 5)
    assert np.allclose(out, 1.0, atol=1e-12)


def test_full_forward_rejects_wrong_shapes():
    kernel = qs.ModelKernel()
    with pytest.raises(qs.CircuitError):
        kernel.expectations(np.zeros(227), np.zeros(34), np.zeros(2))
    with pytest.raises(qs.CircuitError):
        kernel.expectations(np.zeros(228), np.zeros(35), np.zeros(2))
    with pytest.raises(qs.CircuitError):
        kernel.grad(np.zeros(228), np.zeros((2, 34)), np.zeros((2, 3)), np.zeros((2, 5)))
    with pytest.raises(qs.CircuitError):
        kernel.expectations(np.full(228, np.inf), np.zeros(34), np.zeros(2))


def test_full_forward_bounds():
    rng = np.random.default_rng(11)
    params = rng.uniform(-np.pi, np.pi, 228)
    feats = rng.uniform(0, 1, (1000, 34))
    epi = rng.uniform(0, 1, (1000, 2))
    out = qs.ModelKernel().expectations(params, feats, epi)
    assert out.shape == (1000, 5)
    assert (np.abs(out) <= 1.0 + 1e-12).all()


def test_full_forward_matches_matrix_oracle():
    rng = np.random.default_rng(2)
    circ = qs.build_model_circuit()
    kernel = qs.ModelKernel()
    for _ in range(3):
        params = rng.uniform(-np.pi, np.pi, 228)
        feats = rng.uniform(0, 1, 34)
        epi = rng.uniform(0, 1, 2)
        got = kernel.expectations(params, feats, epi)[0]
        want = oracle_expectations(circ, params, np.concatenate([feats, epi]))
        assert np.abs(got - want).max() < 1e-10


def test_norm_preserved():
    rng = np.random.default_rng(8)
    circ = qs.build_model_circuit()
    params = rng.uniform(-np.pi, np.pi, 228)
    feats = rng.uniform(0, 1, 36)
    # gate by gate: the state after every prefix of the gate list
    for end in range(len(circ.gates) + 1):
        prefix = qs.Circuit(7, circ.gates[:end], 36, circ.measured)
        state = qs.run(prefix, params[:prefix.n_params], feats)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


@st.composite
def _random_circuits(draw):
    """A random gate list on 1-4 qubits, a batch of parameter vectors and a
    feature batch. Features may enter several rotations, with negative or zero
    scales, or none."""
    n = draw(st.integers(1, 4))
    n_features = draw(st.integers(0, 3))
    angle = st.floats(-2 * np.pi, 2 * np.pi)
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        if n > 1 and draw(st.booleans()):
            control, target = draw(st.permutations(range(n)))[:2]
            gates.append(qs.CNot(control, target))
            continue
        axis, qubit = draw(st.sampled_from("xyz")), draw(st.integers(0, n - 1))
        if n_features and draw(st.booleans()):
            gates.append(qs.Rot(axis, qubit, draw(st.integers(0, n_features - 1)),
                                draw(st.floats(-2, 2))))
        else:
            gates.append(qs.Rot(axis, qubit))
    circuit = qs.Circuit(n, tuple(gates), n_features, tuple(range(n)))
    n_params = circuit.n_params
    draws, batch = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    size = draws * n_params + batch * n_features
    flat = np.array(draw(st.lists(angle, min_size=size, max_size=size)), float)
    return (circuit, flat[:draws * n_params].reshape(draws, n_params),
            flat[draws * n_params:].reshape(batch, n_features))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_random_circuits())
def test_run_matches_matrix_oracle_on_random_circuits(case):
    circuit, params, features = case
    got = qs.run(circuit, params[:, None], features)
    assert got.shape == (len(params), len(features), 1 << circuit.n_qubits)
    # the parameter batch changes no row beyond rounding: numpy picks a fused
    # multiply-add complex product for some operand shapes and not for others
    stacked = np.stack([qs.run(circuit, theta, features) for theta in params])
    assert np.abs(got - stacked).max(initial=0.0) < 1e-14
    for theta, states in zip(params, got):
        for state, row in zip(states, features):
            assert np.abs(state - oracle_state(circuit, theta, row)).max() < 1e-10


def test_run_rejects_parameter_batch_that_does_not_broadcast():
    circ = qs.Circuit(1, (qs.Rot("x", 0), qs.Rot("z", 0, 0)), 1, measured=(0,))
    assert qs.run(circ, np.zeros((2, 1, 1)), np.zeros((3, 1))).shape == (2, 3, 2)
    with pytest.raises(qs.CircuitError, match="broadcast"):
        qs.run(circ, np.zeros((2, 1)), np.zeros((3, 1)))


def test_an_unbatched_run_is_row_0_of_a_batch_of_one():
    """1-D parameters and no features take the one broadcast rule, bit for bit."""
    gates = qs.entangler_gates((0, 1, 2), 2) + [qs.Rot("y", 1), qs.Rot("z", 2), qs.CNot(2, 0)]
    circ = _one_circuit(3, gates)
    params = np.random.default_rng(14).uniform(-np.pi, np.pi, circ.n_params)
    assert np.array_equal(qs.run(circ, params), qs.run(circ, params[None])[0])


def test_run_returns_a_c_ordered_batch():
    circ = _film_circuit()
    rng = np.random.default_rng(12)
    params, feats = rng.uniform(-np.pi, np.pi, (3, 1, 48)), rng.uniform(0, 1, (4, 36))
    for state in (qs.run(circ, params, feats), qs.run(circ, params[0, 0], feats[0])):
        assert state.flags.c_contiguous


def test_parameter_shift_on_a_stack_of_parameter_vectors_matches_per_vector_calls():
    circ = _film_circuit()
    rng = np.random.default_rng(13)
    stack, feats = rng.uniform(-np.pi, np.pi, (3, 48)), rng.uniform(0, 1, (4, 36))
    grads = (lambda *args: qs.prob_grad(*args)[0], lambda *args: qs.prob_grad(*args)[1],
             qs.param_shift_grad, functools.partial(qs.param_shift_grad, index=5))
    for grad, axis in zip(grads, (0, 1, 1, 0)):  # the batch follows a Jacobian's parameter axis
        got = grad(circ, stack[:, None], feats)
        per_vector = np.stack([grad(circ, theta, feats) for theta in stack], axis=axis)
        assert got.shape == per_vector.shape
        # not bit for bit: see test_run_matches_matrix_oracle_on_random_circuits
        assert np.abs(got - per_vector).max() < 1e-14
    with pytest.raises(qs.CircuitError, match="broadcast"):
        qs.prob_grad(circ, stack, feats)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_random_circuits())
def test_prob_grad_matches_parameter_shift_on_random_circuits(case):
    circuit, params, features = case
    _, got = qs.prob_grad(circuit, params[:, None], features)
    want = shift_prob_grad(circuit, params[:, None], features)
    assert got.shape == want.shape == (circuit.n_params, len(params), len(features),
                                       1 << circuit.n_qubits)
    assert np.abs(got - want).max(initial=0.0) < 1e-12


_ENCODINGS = (qs.Rot("y", 0, 0), qs.CNot(0, 1), qs.Rot("x", 1, 0, 0.5))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_random_circuits())
@example((qs.Circuit(2, (), 1, (0, 1)), np.zeros((3, 0)), np.ones((2, 1))))
@example((qs.Circuit(2, _ENCODINGS, 1, (0, 1)), np.zeros((3, 0)), np.ones((2, 1))))
def test_prob_grad_returns_the_probabilities_of_run(case):
    """The probabilities come from the final state of prob_grad's own forward."""
    circuit, params, features = case
    probs, dp = qs.prob_grad(circuit, params[:, None], features)
    assert np.array_equal(probs, qs.probabilities(qs.run(circuit, params[:, None], features)))
    assert probs.flags.c_contiguous
    assert dp.shape == (circuit.n_params, len(params), len(features), 1 << circuit.n_qubits)


def test_prob_grad_without_a_trainable_rotation_is_an_empty_jacobian():
    for gates in ((), _ENCODINGS):
        circuit = qs.Circuit(2, gates, 1, measured=(0, 1))
        probs, dp = qs.prob_grad(circuit, np.zeros((3, 1, 0)), np.ones((2, 1)))
        assert probs.shape == (3, 2, 4) and dp.shape == (0, 3, 2, 4)
        assert dp.shape == shift_prob_grad(circuit, np.zeros((3, 1, 0)), np.ones((2, 1))).shape


def _oracle_shift_jacobian(circuit, params, row):
    """(n_params, n_measured) derivatives from the dense oracle: each parameter
    in turn moves by +/- pi/2."""
    jac = np.zeros((circuit.n_params, len(circuit.measured)))
    for j, shift in enumerate(np.pi / 2 * np.eye(circuit.n_params)):
        plus, minus = (oracle_expectations(circuit, params + s, row) for s in (shift, -shift))
        jac[j] = (plus - minus) / 2
    return jac


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_random_circuits())
def test_param_shift_matches_oracle_shifts_on_random_circuits(case):
    circuit, params, features = case
    jac = qs.param_shift_grad(circuit, params[0], features, index=None)
    assert jac.shape == (circuit.n_params, len(features), circuit.n_qubits)
    for b, row in enumerate(features):
        want = _oracle_shift_jacobian(circuit, params[0], row)
        assert np.abs(jac[:, b] - want).max(initial=0.0) < 1e-10


def test_global_phase_invariance():
    rng = np.random.default_rng(9)
    circ = qs.build_model_circuit()
    params = rng.uniform(-np.pi, np.pi, 228)
    feats = rng.uniform(0, 1, 36)
    state = qs.run(circ, params, feats)
    shifted = state * np.exp(1j * 0.7)
    a = qs.measured_expectations(circ, state)
    b = qs.measured_expectations(circ, shifted)
    assert np.allclose(a, b, atol=1e-14)


def test_batched_readout_equals_per_row_readouts_bit_for_bit():
    rng = np.random.default_rng(9)
    circ = qs.build_model_circuit()
    states = qs.run(circ, rng.uniform(-np.pi, np.pi, 228), rng.uniform(0, 1, (64, 36)))
    batched = qs.measured_expectations(circ, states)
    assert np.array_equal(batched, [qs.measured_expectations(circ, s) for s in states])


def test_param_shift_single_qubit():
    circ = qs.Circuit(1, (qs.Rot("x", 0),), 0, measured=(0,))
    g = qs.param_shift_grad(circ, [np.pi / 2], index=0)
    assert g[0] == pytest.approx(-1.0, abs=1e-12)
    g0 = qs.param_shift_grad(circ, [0.0], index=0)
    assert g0[0] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(qs.CircuitError):
        qs.param_shift_grad(circ, [0.0], index=1)
    with pytest.raises(qs.CircuitError, match="expected 1 parameters"):
        qs.param_shift_grad(circ, [0.0, 0.0])


def test_param_shift_matches_finite_differences_subset():
    rng = np.random.default_rng(4)
    circ = qs.build_model_circuit()
    params = rng.uniform(-np.pi, np.pi, 228)
    feats = rng.uniform(0, 1, 36)
    h = 1e-4
    for i in (0, 48, 150, 208, 227):
        g = qs.param_shift_grad(circ, params, feats, index=i)
        pp, pm = params.copy(), params.copy()
        pp[i] += h
        pm[i] -= h
        fp = qs.measured_expectations(circ, qs.run(circ, pp, feats))
        fm = qs.measured_expectations(circ, qs.run(circ, pm, feats))
        fd = (fp - fm) / (2 * h)
        assert np.abs(g - fd).max() < 1e-5


def test_param_shift_jacobian_is_one_run(monkeypatch):
    circ = qs.build_model_circuit()
    runs = []
    real_run = qs.run
    monkeypatch.setattr(qs, "run", lambda *args: runs.append(args) or real_run(*args))
    jac = qs.param_shift_grad(circ, np.zeros(228), np.zeros(36), index=None)
    assert jac.shape == (228, 5) and len(runs) == 1


def test_prob_grad_sums_to_zero():
    rng = np.random.default_rng(6)
    circ = _film_circuit()
    params = rng.uniform(0, 2 * np.pi, 228)[:48]
    feats = rng.uniform(0, 1, 36)
    probs, dp = qs.prob_grad(circ, params, feats)
    assert probs.shape == (4,) and dp.shape == (48, 4)
    assert np.abs(dp.sum(-1)).max() < 1e-12  # probabilities stay normalized


def test_shot_sampling_converges():
    rng = np.random.default_rng(10)
    circ = _film_circuit()
    params = rng.uniform(-np.pi, np.pi, 228)[:48]
    feats = np.zeros(36)
    feats[34:] = (0.4, 0.9)
    state = qs.run(circ, params, feats)
    shots = 1_000_000
    bits = qs.sample_bitstrings(state, shots, rng)
    for q in range(2):
        z_hat = 1.0 - 2.0 * bits[:, q].mean()
        z = qs.expectation_z(state, q)
        se = math.sqrt(max(1.0 - z * z, 1e-12) / shots)
        assert abs(z_hat - z) < 3 * se + 1e-9


def test_kernel_matches_generic_engine():
    rng = np.random.default_rng(12)
    cfg = qs.ModelConfig()
    params = rng.uniform(-np.pi, np.pi, 228)
    feats = rng.uniform(0, 1, (4, 34))
    epi = rng.uniform(0, 1, (4, 2))
    kernel = qs.ModelKernel()
    circ = qs.build_model_circuit(cfg)
    want = qs.measured_expectations(
        circ, qs.run(circ, params, np.concatenate([feats, epi], axis=1)))
    assert np.abs(kernel.expectations(params, feats, epi) - want).max() < 1e-12


def test_kernel_sections_partition_the_circuit():
    cfg = qs.ModelConfig()
    circ = qs.build_model_circuit(cfg)
    kernel = qs.ModelKernel()
    film = set(range(cfg.film_qubits))
    main = set(range(cfg.film_qubits, cfg.n_qubits))

    def support(g):
        return {g.qubit} if isinstance(g, qs.Rot) else {g.control, g.target}

    # every gate in exactly one section, and in circuit order
    assert kernel.film_gates + kernel.main_gates + kernel.tail_gates == circ.gates
    assert all(support(g) <= film for g in kernel.film_gates)
    assert all(support(g) <= main for g in kernel.main_gates)
    bridge = kernel.tail_gates[0]
    assert isinstance(bridge, qs.CNot) and support(bridge) & film and support(bridge) & main
    assert len(kernel.film_gates) == 6 * 4 * (2 + 2) + 5 * 2
    assert len(kernel.main_gates) == 8 * 4 * (5 + 5) + 34  # 34 encodings, no padding


def _local_circuit(gates, first, k):
    """The gates moved to qubits 0..k-1, as a circuit without features."""
    return qs.Circuit(k, tuple(
        dataclasses.replace(g, qubit=g.qubit - first) if isinstance(g, qs.Rot)
        else qs.CNot(g.control - first, g.target - first) for g in gates), 0, ())


def _section_gates(kernel):
    """(gates, first qubit, qubits) of the film, main and final sections."""
    f, m = qs.ModelConfig.film_qubits, qs.ModelConfig.main_qubits
    bridge = tuple(itertools.takewhile(lambda g: isinstance(g, qs.CNot), kernel.tail_gates))
    return ((kernel.film_gates, 0, f), (kernel.main_gates, f, m),
            (kernel.tail_gates[len(bridge):], f, m))


def test_kernel_outputs_are_a_plus_p_odd_times_b_minus_a():
    """The bridge flips the main register by 11111 when the film parity is odd, so
    each output is a + P_odd * (b - a): P_odd is the film section's odd-parity
    probability, and a and b are the generic engine's Z read-outs of the main and
    final gates with the main register unflipped and flipped (by an RX(pi) on
    each main qubit: X up to a global phase)."""
    rng = np.random.default_rng(31)
    kernel, cfg = qs.ModelKernel(), qs.ModelConfig()
    params = rng.uniform(-np.pi, np.pi, cfg.n_params)
    x = rng.uniform(0, 1, (16, 36))
    film = qs.probabilities(qs.run(_film_circuit(), params[:cfg.n_film_params], x))
    p_odd = film[:, 0b01] + film[:, 0b10]
    _, (main_gates, f, m), (final, _, _) = _section_gates(kernel)
    main = tuple(range(f, f + m))
    rest, n_main = params[cfg.n_film_params:], cfg.n_main_params
    flipped = np.concatenate([rest[:n_main], np.full(m, np.pi), rest[n_main:]])
    a, b = (qs.measured_expectations(circ, qs.run(circ, p, x)) for circ, p in [
        (qs.Circuit(7, main_gates + final, 36, main), rest),
        (qs.Circuit(7, main_gates + tuple(qs.Rot("x", q) for q in main) + final, 36, main),
         flipped)])
    got = kernel.expectations(params, x[:, :34], x[:, 34:])
    assert np.abs(got - (a + p_odd[:, None] * (b - a))).max() < 1e-12
    assert np.ptp(p_odd) > 0.01 and np.abs(b - a).max() > 0.1  # neither term vanishes


def test_kernel_blocks_match_dense_oracle_of_their_gate_runs():
    """Each compiled block of the film, main and final sections equals the dense
    product of its run of RX and CNOT gates."""
    rng = np.random.default_rng(18)
    cfg = qs.ModelConfig()
    params = rng.uniform(-np.pi, np.pi, cfg.n_params)
    kernel = qs.ModelKernel()
    kernel.expectations(params, np.zeros(34), np.zeros(2))
    start = 0  # the parameters of each run's trainable rotations follow in gate order
    for section, (gates, first, k) in zip(kernel._sections, _section_gates(kernel)):
        runs = [tuple(run) for encoding, run in itertools.groupby(
            gates, lambda g: isinstance(g, qs.Rot) and g.axis == "z") if not encoding]
        assert len(runs) == len(section.blocks)
        for run, block in zip(runs, section.blocks):
            local = _local_circuit(run, first, k)
            want = circuit_unitary(local, params[start:start + local.n_params])
            start += local.n_params
            assert np.abs(block - want).max() < 1e-12
    assert start == cfg.n_params


def test_kernel_blocks_are_unitary():
    rng = np.random.default_rng(17)
    kernel = qs.ModelKernel()
    kernel.expectations(rng.uniform(-np.pi, np.pi, 228), np.zeros(34), np.zeros(2))
    blocks = [u for section in kernel._sections for u in section.blocks]
    assert [u.shape for u in blocks] == [(4, 4)] * 6 + [(32, 32)] * 9
    for u in blocks:
        assert np.abs(u @ u.conj().T - np.eye(len(u))).max() < 1e-12


@pytest.mark.parametrize("rows", [1, 7, 256])
def test_kernel_equals_the_layer_by_layer_oracle(rows):
    """The X-string kernel agrees with sections that compile and pull back layer
    by layer, joined by the (B, 2**7) joint state: blocks and expectations
    within 1e-12, the gradient within 1e-10."""
    rng = np.random.default_rng(rows)
    params = rng.uniform(-np.pi, np.pi, 228)
    feats, epi = rng.uniform(0, 1, (rows, 34)), rng.uniform(0, 1, (rows, 2))
    upstream = rng.normal(size=(rows, 5))
    kernel, oracle = qs.ModelKernel(), BlockwiseKernel()
    assert np.abs(kernel.expectations(params, feats, epi)
                  - oracle.expectations(params, feats, epi)).max() < 1e-12
    for section, reference in zip(kernel._sections, oracle._sections):
        assert np.abs(section.blocks - np.stack(reference.blocks)).max() < 1e-12
    assert np.abs(kernel.grad(params, feats, epi, upstream)
                  - oracle.grad(params, feats, epi, upstream)).max() < 1e-10


@pytest.mark.parametrize("rows", [1, 7, 256, 2000])
def test_kronecker_phases_equal_the_gather_reference_bit_for_bit(rows):
    """Each encoding run's phase vector, built qubit by qubit as a Kronecker
    product, has the bits of the gather over basis states and product over
    qubits; the final section, which has no encoding run, gives an empty one."""
    x = np.random.default_rng(rows).uniform(-1, 2, (rows, 36))
    got = [section.phases(x) for section in qs.ModelKernel()._sections]
    want = [section.phases(x) for section in BlockwiseKernel()._sections]
    assert [p.shape for p in got] == [(rows, 5, 4), (rows, 7, 32), (rows, 0, 32)]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_every_rx_gate_is_an_x_string_rotation_of_its_block_input():
    """For the RX on qubit q of a block, V^+ X_q V = X_M, where V is the dense
    product of the block's gates before it at random angles and X_M is the
    permutation of the gate's mask in its section."""
    rng = np.random.default_rng(19)
    kernel = qs.ModelKernel()
    pauli_x, eye = np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
    for section, (gates, first, k) in zip(kernel._sections, _section_gates(kernel)):
        block = next(tuple(run) for encoding, run in itertools.groupby(
            gates, lambda g: isinstance(g, qs.Rot) and g.feature is not None)
            if not encoding)
        at = [i for i, g in enumerate(block) if isinstance(g, qs.Rot)]
        assert len(at) == len(section._flips) == 4 * k
        for i, flip in zip(at, section._flips):
            prefix = _local_circuit(block[:i], first, k)
            v = circuit_unitary(prefix, rng.uniform(-np.pi, np.pi, prefix.n_params))
            x_q = functools.reduce(np.kron, [pauli_x if q == block[i].qubit - first else eye
                                             for q in range(k)])
            assert np.abs(v.conj().T @ x_q @ v - np.eye(1 << k)[flip]).max() < 1e-12


def test_bridge_masks_reproduce_the_dense_bridge():
    """The bridge CNOTs take f (x) m to sum_a f_a |a> (x) X_F(a) m, with F(a)
    the mask of film state a; film states that share a mask share a weight."""
    rng = np.random.default_rng(20)
    kernel = qs.ModelKernel()
    bridge = tuple(itertools.takewhile(lambda g: isinstance(g, qs.CNot), kernel.tail_gates))
    dense = circuit_unitary(qs.Circuit(7, bridge, 0, ()), np.zeros(0))
    f, m = (rng.normal(size=(d, 2)) @ [1, 1j] for d in (4, 32))
    got = (dense @ np.kron(f, m)).reshape(4, 32)
    want = [f[a] * m[kernel._flips[kernel._mask_of[a]]] for a in range(4)]
    assert np.abs(got - want).max() < 1e-12
    assert sorted(kernel._flips[:, 0]) == [0, 0b11111]  # F(a) by the parity of a
    assert np.array_equal(kernel._members, np.eye(len(kernel._flips))[:, kernel._mask_of])


@pytest.mark.parametrize("edit", ["drop the last CNOT", "swap two RX", "an RY block"])
def test_a_section_whose_blocks_differ_is_rejected(edit):
    """Every block of a section must repeat the first block's gates, RX and CNOT only."""
    gates = list(qs.ModelKernel().film_gates)  # 6 blocks of 16 gates, with 2 encodings between
    if edit == "drop the last CNOT":
        gates.pop()
        match = "repeats its first block"
    elif edit == "swap two RX":
        gates[18], gates[19] = gates[19], gates[18]  # the second block's first layer
        match = "repeats its first block"
    else:
        gates = [qs.Rot("y", g.qubit) if isinstance(g, qs.Rot) and g.feature is None else g
                 for g in gates]
        match = "holds RX parameters and CNOTs"
    with pytest.raises(qs.CircuitError, match=match):
        qs._Section(tuple(gates), 0, 2, 0)


def test_kernel_grad_equals_param_shift_contraction():
    rng = np.random.default_rng(13)
    cfg = qs.ModelConfig()
    circ = qs.build_model_circuit(cfg)
    params = rng.uniform(-np.pi, np.pi, 228)
    feats = rng.uniform(0, 1, (3, 34))
    epi = rng.uniform(0, 1, (3, 2))
    upstream = rng.normal(0, 1, (3, 5))
    kernel = qs.ModelKernel()
    got = kernel.grad(params, feats, epi, upstream)
    joint = np.concatenate([feats, epi], axis=1)
    jac = qs.param_shift_grad(circ, params, joint, index=None)  # (228, 3, 5)
    want = np.einsum("pbk,bk->p", jac, upstream)
    assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("rows", [1, 2000])
def test_kernel_grad_equals_param_shift_contraction_at_1_and_2000_rows(rows):
    """At one row every parameter shifts on the generic engine. At 2,000 rows,
    where that would take minutes, the kernel's forward first matches the
    generic engine, then shifts every seventh parameter, which visits every
    section and every position of a main-section block."""
    rng = np.random.default_rng(23)
    circ = qs.build_model_circuit()
    params = rng.uniform(-np.pi, np.pi, 228)
    feats, epi = rng.uniform(0, 1, (rows, 34)), rng.uniform(0, 1, (rows, 2))
    upstream = rng.normal(0, 1, (rows, 5))
    kernel = qs.ModelKernel()
    got = kernel.grad(params, feats, epi, upstream)
    joint = np.concatenate([feats, epi], axis=1)
    if rows == 1:
        jac = qs.param_shift_grad(circ, params, joint, index=None)
        assert np.abs(got - np.einsum("pbk,bk->p", jac, upstream)).max() < 1e-10
        return
    engine = qs.measured_expectations(circ, qs.run(circ, params, joint))
    assert np.abs(kernel.expectations(params, feats, epi) - engine).max() < 1e-12
    for j in range(0, 228, 7):
        shift = np.pi / 2 * np.eye(228)[j]
        plus, minus = (kernel.expectations(params + s, feats, epi) for s in (shift, -shift))
        assert abs(got[j] - ((plus - minus) * upstream).sum() / 2) < 1e-10


def test_export_qasm_single_gate():
    circ = qs.Circuit(1, (qs.Rot("x", 0),), 0, measured=(0,))
    text = qs.export_qasm3(circ, [0.5])
    assert text.count("rx(") == 1
    assert "OPENQASM 3.0;" in text.splitlines()[0]


def test_export_qasm_census_and_structure():
    rng = np.random.default_rng(14)
    circ = qs.build_model_circuit()
    params = rng.uniform(-np.pi, np.pi, 228)
    feats = rng.uniform(0, 1, 36)
    text = qs.export_qasm3(circ, params, feats)
    lines = text.strip().splitlines()
    assert lines[0] == "OPENQASM 3.0;"
    assert lines[1] == 'include "stdgates.inc";'
    assert lines[2] == "qubit[7] q;"
    assert lines[3] == "bit[5] c;"
    census = circ.census()
    for kind in ("rx", "rz", "cx"):
        pattern = rf"^{kind}[(\s]"
        assert sum(1 for l in lines if re.match(pattern, l)) == census[kind]
    assert sum(1 for l in lines if "measure" in l) == 5
    # every statement line is well-formed
    stmt = re.compile(r"^(OPENQASM 3\.0;|include \".+\";|qubit\[\d+\] q;"
                      r"|bit\[\d+\] c;|r[xyz]\(-?[\d.e+-]+\) q\[\d+\];"
                      r"|cx q\[\d+\], q\[\d+\];|c\[\d+\] = measure q\[\d+\];)$")
    for line in lines:
        assert stmt.match(line), line


def test_export_qasm_unbound_features_rejected():
    circ = qs.build_model_circuit()
    with pytest.raises(qs.CircuitError):
        qs.export_qasm3(circ, np.zeros(228))
    with pytest.raises(qs.CircuitError):
        qs.export_qasm3(circ, np.zeros(10), np.zeros(36))
    nan_feature = np.zeros(36)
    nan_feature[5] = np.nan
    with pytest.raises(qs.CircuitError, match="finite"):
        qs.export_qasm3(circ, np.zeros(228), nan_feature)
    with pytest.raises(qs.CircuitError, match="finite"):
        qs.export_qasm3(circ, np.full(228, np.inf), np.zeros(36))


def test_export_qasm_binds_a_single_row():
    circ = qs.build_model_circuit()
    for params, feats in ((np.zeros((2, 228)), np.zeros(36)), (np.zeros(228), np.zeros((2, 36)))):
        with pytest.raises(qs.CircuitError, match="single"):
            qs.export_qasm3(circ, params, feats)


@pytest.mark.parametrize("engine", [qs.run, qs.prob_grad, qs.param_shift_grad])
def test_unbound_features_are_rejected_before_any_gate(monkeypatch, engine):
    """A circuit whose encodings have no features fails its input check: the
    trainable rotation ahead of the encoding never runs."""
    circ = qs.Circuit(1, (qs.Rot("x", 0), qs.Rot("z", 0, 0)), 1, measured=(0,))
    gates = []
    monkeypatch.setattr(qs, "_apply_rot", lambda *args: gates.append(args))
    with pytest.raises(qs.CircuitError, match="expected 1 features, got none"):
        engine(circ, [0.3])
    assert gates == []
