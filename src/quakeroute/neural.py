"""Classical FiLM network with built-in reverse-mode gradients.

A 34->100->100->5 ReLU stack with dropout ``DROPOUT``; the penultimate
activation is scaled and shifted element-wise by two dense maps of the
epicenter coordinates. Gradients are exact hand-rolled backprop, checked
against finite differences in the tests. No mask touches the first layer or
the FiLM maps, so ``rescore`` gives a dropout forward's rows their dropout-free
logits from its first layer. ``adam_step`` updates one flat vector per group.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .features import N_BLOCKS, N_EPI, N_MAIN

HIDDEN = 100  # the width of both hidden layers
# share of the hidden units that a forward with an rng drops at each site
DROPOUT = 0.5
# lr_schedule's factor at the first and at the last epoch
LR_START_FACTOR, LR_END_FACTOR = 1.0, 0.1
# Adam's decay rates of the first and second moments, its denominator guard,
# and the decoupled weight decay of every parameter group
ADAM_DECAY, ADAM_EPS = (0.9, 0.999), 1e-8
WEIGHT_DECAY = 1e-5


class ConfigError(ValueError):
    """Inconsistent layer shapes or bad arguments."""


class StateError(RuntimeError):
    """backward() called without a cached forward pass."""


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                    fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, shape)


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w.T + b``, the bias added in place."""
    z = x @ w.T
    z += b
    return z


class ClassicalFilmNet:
    """Dense stack modulated by epicenter-conditioned scale and shift."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {
            "w1": kaiming_uniform(rng, (HIDDEN, N_MAIN), N_MAIN),
            "b1": np.zeros(HIDDEN),
            "w2": kaiming_uniform(rng, (HIDDEN, HIDDEN), HIDDEN),
            "b2": np.zeros(HIDDEN),
            "w3": kaiming_uniform(rng, (N_BLOCKS, HIDDEN), HIDDEN),
            "b3": np.zeros(N_BLOCKS),
            "film_scale_w": kaiming_uniform(rng, (HIDDEN, N_EPI), N_EPI),
            # start as an identity modulation: scale 1, shift 0
            "film_scale_b": np.ones(HIDDEN),
            "film_shift_w": kaiming_uniform(rng, (HIDDEN, N_EPI), N_EPI),
            "film_shift_b": np.zeros(HIDDEN),
        }
        self._cache = None

    def forward(self, x: np.ndarray, epi: np.ndarray,
                rng: np.random.Generator | None = None) -> np.ndarray:
        """Logits of shape (B, 5). Dropout draws its masks from ``rng``; without
        one the masks are 1.0 and the masked activations are the unmasked ones."""
        x = np.atleast_2d(np.asarray(x, float))
        epi = np.atleast_2d(np.asarray(epi, float))
        if x.shape[1] != N_MAIN or epi.shape[1] != N_EPI:
            raise ConfigError(
                f"expected inputs ({N_MAIN}, {N_EPI}), "
                f"got ({x.shape[1]}, {epi.shape[1]})")
        p = self.params
        logits, self._cache = self._top(dict(
            x=x, epi=epi, h1=np.maximum(dense(x, p["w1"], p["b1"]), 0.0),
            gamma=dense(epi, p["film_scale_w"], p["film_scale_b"]),
            beta=dense(epi, p["film_shift_w"], p["film_shift_b"])), rng)
        return logits

    def rescore(self) -> np.ndarray:
        """The last forward's rows' dropout-free logits, bit for bit: layers 2 and
        3 rerun without masks on its first layer and FiLM maps, which no mask
        touches. The cache, which ``backward`` reads, stays the forward's."""
        if self._cache is None:
            raise StateError("forward() must run before rescore()")
        return self._top(self._cache, None)[0]

    def _top(self, c: dict, rng) -> tuple[np.ndarray, dict]:
        """Layers 2 and 3 on the first layer and FiLM maps in ``c``, masks drawn
        from ``rng`` (m1, then m2): the logits, and ``c`` with these layers."""
        p = self.params
        m1 = 1.0 if rng is None else (rng.random(c["h1"].shape) >= DROPOUT) / (1.0 - DROPOUT)
        h1d = c["h1"] if rng is None else c["h1"] * m1
        h2 = np.maximum(dense(h1d, p["w2"], p["b2"]), 0.0)
        h2m = c["gamma"] * h2
        h2m += c["beta"]
        m2 = 1.0 if rng is None else (rng.random(h2m.shape) >= DROPOUT) / (1.0 - DROPOUT)
        h2d = h2m if rng is None else h2m * m2
        logits = dense(h2d, p["w3"], p["b3"])
        return logits, dict(c, m1=m1, h1d=h1d, h2=h2, h2m=h2m, m2=m2, h2d=h2d)

    def backward(self, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Exact gradients for every parameter given d(loss)/d(logits) of the last
        ``forward``, keyed and ordered as ``params``."""
        if self._cache is None:
            raise StateError("forward() must run before backward()")
        c = self._cache
        p = self.params
        dlogits = np.asarray(dlogits, float)
        grads: dict[str, np.ndarray] = {}
        grads["w3"] = dlogits.T @ c["h2d"]
        grads["b3"] = dlogits.sum(axis=0)
        dh2d = dlogits @ p["w3"]
        dh2m = dh2d * c["m2"]
        dgamma = dh2m * c["h2"]
        dbeta = dh2m
        grads["film_scale_w"] = dgamma.T @ c["epi"]
        grads["film_scale_b"] = dgamma.sum(axis=0)
        grads["film_shift_w"] = dbeta.T @ c["epi"]
        grads["film_shift_b"] = dbeta.sum(axis=0)
        dh2 = dh2m * c["gamma"]
        dz2 = dh2 * (c["h2"] > 0)  # a ReLU's output is positive where its input is
        grads["w2"] = dz2.T @ c["h1d"]
        grads["b2"] = dz2.sum(axis=0)
        dh1d = dz2 @ p["w2"]
        dh1 = dh1d * c["m1"]
        dz1 = dh1 * (c["h1"] > 0)
        grads["w1"] = dz1.T @ c["x"]
        grads["b1"] = dz1.sum(axis=0)
        return {key: grads[key] for key in p}  # in the order of params


def cross_entropy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray):
    """Mean masked cross entropy and its logit gradient.

    Softmax runs over the unmasked classes only; masked logits get no
    probability and a zero gradient.
    """
    logits = np.atleast_2d(np.asarray(logits, float))
    labels = np.atleast_1d(np.asarray(labels, int))
    mask = np.atleast_2d(np.asarray(mask, bool))
    if not mask.any(axis=1).all():
        raise ValueError("every row needs at least one unmasked class")
    if (~np.take_along_axis(mask, labels[:, None], axis=1)).any():
        raise ValueError("a label points at a masked class")
    z = np.where(mask, logits, -np.inf)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    n = len(labels)
    picked = probs[np.arange(n), labels]
    loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    dlogits[~mask] = 0.0
    return loss, dlogits


@dataclass
class AdamState:
    """First/second moment accumulators of one parameter vector."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One Adam update of the vector ``params`` with decoupled weight decay
    ``WEIGHT_DECAY``, in place: elementwise, so a group of arrays updates as one
    vector of which they are views, the same as array by array."""
    state.step += 1
    t = state.step
    d1, d2 = ADAM_DECAY
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    state.m += (1 - d1) * (grad - state.m)
    state.v += (1 - d2) * (grad * grad - state.v)
    mhat = state.m / (1 - d1 ** t)
    vhat = state.v / (1 - d2 ** t)
    params -= lr * (mhat / (np.sqrt(vhat) + ADAM_EPS) + WEIGHT_DECAY * params)


def lr_schedule(epoch: float, n_epochs: int) -> float:
    """Linear learning-rate factor from start to end over the epoch range."""
    if not 0 <= epoch < n_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {n_epochs})")
    if n_epochs == 1:
        return LR_START_FACTOR
    frac = epoch / (n_epochs - 1)
    return LR_START_FACTOR + (LR_END_FACTOR - LR_START_FACTOR) * frac
