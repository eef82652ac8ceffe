import math

import numpy as np
import pytest

import quakeroute.hybrid as hy
import quakeroute.neural as nn
from helpers import keyed_adam_step


def _net(seed=0):
    return nn.ClassicalFilmNet(seed=seed)


def test_forward_shapes_and_zero_weights():
    net = _net()
    for key in net.params:
        net.params[key][:] = 0.0
    out = net.forward(np.ones((3, 34)), np.ones((3, 2)))
    assert out.shape == (3, 5)
    assert np.allclose(out, 0.0)


def test_film_identity_reduces_to_plain_mlp():
    net = _net(seed=1)
    p = net.params
    p["film_scale_w"][:] = 0.0
    p["film_scale_b"][:] = 1.0
    p["film_shift_w"][:] = 0.0
    p["film_shift_b"][:] = 0.0
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (4, 34))
    epi = rng.uniform(0, 1, (4, 2))
    got = net.forward(x, epi)
    # plain unmodulated stack recomputed by hand
    h1 = np.maximum(x @ p["w1"].T + p["b1"], 0)
    h2 = np.maximum(h1 @ p["w2"].T + p["b2"], 0)
    want = h2 @ p["w3"].T + p["b3"]
    assert np.array_equal(got, want)


def test_backward_matches_finite_differences():
    net = _net(seed=2)
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (5, 34))
    epi = rng.uniform(0, 1, (5, 2))
    y, mask = rng.integers(0, 5, 5), np.ones((5, 5), bool)
    loss, dlogits = nn.cross_entropy(net.forward(x, epi), y, mask)
    grads = net.backward(dlogits)
    h = 1e-6
    for name, p in net.params.items():
        flat = p.ravel()
        for k in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            old = flat[k]
            flat[k] = old + h
            lp, _ = nn.cross_entropy(net.forward(x, epi), y, mask)
            flat[k] = old - h
            lm, _ = nn.cross_entropy(net.forward(x, epi), y, mask)
            flat[k] = old
            fd = (lp - lm) / (2 * h)
            got = grads[name].ravel()[k]
            assert got == pytest.approx(fd, rel=1e-4, abs=1e-8), name


def test_backward_requires_forward():
    with pytest.raises(nn.StateError):
        _net().backward(np.zeros((1, 5)))


def test_backward_beta_and_zero_input():
    net = _net(seed=3)
    x = np.zeros((3, 34))
    epi = np.random.default_rng(0).uniform(0, 1, (3, 2))
    logits = net.forward(x, epi)
    dlogits = np.random.default_rng(1).normal(0, 1, logits.shape)
    grads = net.backward(dlogits)
    assert np.allclose(grads["w1"], 0.0)  # dead ReLU path from zero input
    # the shift path is purely additive: its bias grad is the upstream sum
    dh2m = (dlogits @ net.params["w3"]) * net._cache["m2"]
    assert np.allclose(grads["film_shift_b"], dh2m.sum(axis=0))


def test_dropout_off_deterministic_on_unbiased():
    net = _net(seed=4)
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, (1, 34))
    epi = rng.uniform(0, 1, (1, 2))
    a = net.forward(x, epi)
    b = net.forward(x, epi)
    assert np.array_equal(a, b)
    # inverted dropout is unbiased at each dropout site
    net.forward(x, epi)
    h1 = net._cache["h1"].copy()
    h1d_draws, h2_gaps = [], []
    for _ in range(10_000):
        net.forward(x, epi, rng=rng)
        h1d_draws.append(net._cache["h1d"].copy())
        h2_gaps.append(net._cache["h2d"] - net._cache["h2m"])
    h1d_draws = np.stack(h1d_draws)
    se = h1d_draws.std(axis=0) / math.sqrt(len(h1d_draws)) + 1e-12
    assert (np.abs(h1d_draws.mean(axis=0) - h1) < 3 * se + 1e-9).all()
    h2_gaps = np.stack(h2_gaps)
    se2 = h2_gaps.std(axis=0) / math.sqrt(len(h2_gaps)) + 1e-12
    assert (np.abs(h2_gaps.mean(axis=0)) < 3 * se2 + 1e-9).all()


def test_rescore_is_a_dropout_free_forward_bit_for_bit():
    """After a dropout forward, ``rescore`` gives the rows the logits of a
    forward without an rng at the same parameters, and ``backward`` still reads
    the dropout forward."""
    rng = np.random.default_rng(31)
    x, epi = rng.normal(size=(9, 34)), rng.normal(size=(9, 2))
    net, twin = _net(3), _net(3)
    with pytest.raises(nn.StateError):
        net.rescore()
    dropped = net.forward(x, epi, rng=np.random.default_rng(5))
    assert np.array_equal(twin.forward(x, epi, rng=np.random.default_rng(5)), dropped)
    want = _net(3).forward(x, epi)
    assert not np.array_equal(dropped, want)
    assert np.array_equal(net.rescore(), want)
    dlogits = rng.normal(size=(9, 5))
    got = net.backward(dlogits)
    assert list(got) == list(net.params)
    for key, g in twin.backward(dlogits).items():
        assert np.array_equal(got[key], g)


def test_cross_entropy_values():
    every = np.ones((1, 5), bool)
    loss, _ = nn.cross_entropy(np.zeros((1, 5)), [0], every)
    assert loss == pytest.approx(math.log(5))
    mask = np.array([[True, True, True, False, False]])
    loss3, _ = nn.cross_entropy(np.zeros((1, 5)), [1], mask)
    assert loss3 == pytest.approx(math.log(3))
    peaked = np.array([[50.0, 0, 0, 0, 0]])
    loss0, _ = nn.cross_entropy(peaked, [0], every)
    assert loss0 < 1e-8
    with pytest.raises(ValueError):
        nn.cross_entropy(np.zeros((1, 5)), [0], np.zeros((1, 5), bool))


def test_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(3)
    logits = rng.normal(0, 1, (4, 5))
    labels = rng.integers(0, 3, 4)
    mask = np.ones((4, 5), bool)
    mask[:, 4] = False
    _, grad = nn.cross_entropy(logits, labels, mask)
    assert np.allclose(grad[:, 4], 0.0)
    h = 1e-6
    for b in range(4):
        for j in range(4):
            lp = logits.copy()
            lp[b, j] += h
            lm = logits.copy()
            lm[b, j] -= h
            fd = (nn.cross_entropy(lp, labels, mask)[0]
                  - nn.cross_entropy(lm, labels, mask)[0]) / (2 * h)
            assert grad[b, j] == pytest.approx(fd, abs=1e-6)


def test_adam_step_behaviour(monkeypatch):
    monkeypatch.setattr(nn, "WEIGHT_DECAY", 0.0)
    params = np.array([1.0, -2.0])
    nn.adam_step(params, np.zeros(2), nn.AdamState(), lr=0.1)
    assert np.allclose(params, [1.0, -2.0])
    params = np.array([0.0])
    nn.adam_step(params, np.array([3.0]), nn.AdamState(), lr=1e-3)
    # first Adam step moves by ~lr regardless of gradient scale
    assert abs(params[0]) == pytest.approx(1e-3, rel=1e-6)
    monkeypatch.undo()  # weight decay on again
    a, b = np.array([0.5]), np.array([0.5])
    sa, sb = nn.AdamState(), nn.AdamState()
    for _ in range(5):
        nn.adam_step(a, np.array([0.2]), sa, lr=1e-2)
        nn.adam_step(b, np.array([0.2]), sb, lr=1e-2)
    assert np.array_equal(a, b)


def test_flat_adam_matches_the_array_by_array_update_bit_for_bit():
    """One update of a model's classical group, the flat vector of which its
    classical and head arrays are views, moves each array as the reference's
    update of that array does, bit for bit over six steps with weight decay,
    zero gradients and zero parameters (the biases start at zero) among them."""
    model, rng = hy.HybridModel(seed=32), np.random.default_rng(32)
    group = {**model.classical.params, "head_w": model.head_w, "head_b": model.head_b}
    assert all(np.shares_memory(model.classical_group, a) for a in group.values())
    assert model.classical_group.size == sum(a.size for a in group.values()) == 14760
    assert not group["b1"].any()
    reference = {key: a.copy() for key, a in group.items()}
    state, keyed = nn.AdamState(), {}
    for step in range(6):
        grads = {key: rng.normal(size=a.shape) for key, a in group.items()}
        grads["b2"][:] = 0.0
        grads["w2"][step] = 0.0
        lr = 1e-2 / (step + 1)
        nn.adam_step(model.classical_group, np.concatenate([g.ravel() for g in grads.values()]),
                     state, lr)
        keyed_adam_step(reference, grads, keyed, lr)
        for key, a in group.items():
            assert np.array_equal(a, reference[key]), (step, key)
    assert state.step == keyed["step"] == 6
    # a zero parameter with zero gradients stays zero; one with gradients moves
    assert not group["b2"].any() and group["b1"].all()


def test_lr_schedule():
    assert nn.lr_schedule(0, 100) == 1.0
    assert nn.lr_schedule(99, 100) == pytest.approx(0.1)
    assert nn.lr_schedule(49.5, 100) == pytest.approx(0.55)
    with pytest.raises(ValueError):
        nn.lr_schedule(100, 100)
    with pytest.raises(ValueError):
        nn.lr_schedule(-1, 100)


def test_forward_shape_validation():
    with pytest.raises(nn.ConfigError):
        _net().forward(np.zeros((2, 33)), np.zeros((2, 2)))
