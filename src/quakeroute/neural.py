"""Classical FiLM network with built-in reverse-mode gradients.

A 34->100->100->5 ReLU stack with dropout ``DROPOUT``; the penultimate
activation is scaled and shifted element-wise by two dense maps of the
epicenter coordinates. Gradients are exact hand-rolled backprop, checked
against finite differences in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        one the masks are 1.0, and ``x * 1.0`` is exact."""
        x = np.atleast_2d(np.asarray(x, float))
        epi = np.atleast_2d(np.asarray(epi, float))
        if x.shape[1] != N_MAIN or epi.shape[1] != N_EPI:
            raise ConfigError(
                f"expected inputs ({N_MAIN}, {N_EPI}), "
                f"got ({x.shape[1]}, {epi.shape[1]})")
        p = self.params
        z1 = x @ p["w1"].T + p["b1"]
        h1 = np.maximum(z1, 0.0)
        m1 = 1.0 if rng is None else (rng.random(h1.shape) >= DROPOUT) / (1.0 - DROPOUT)
        h1d = h1 * m1
        z2 = h1d @ p["w2"].T + p["b2"]
        h2 = np.maximum(z2, 0.0)
        gamma = epi @ p["film_scale_w"].T + p["film_scale_b"]
        beta = epi @ p["film_shift_w"].T + p["film_shift_b"]
        h2m = gamma * h2 + beta
        m2 = 1.0 if rng is None else (rng.random(h2m.shape) >= DROPOUT) / (1.0 - DROPOUT)
        h2d = h2m * m2
        logits = h2d @ p["w3"].T + p["b3"]
        self._cache = dict(x=x, epi=epi, z1=z1, h1=h1, m1=m1, h1d=h1d, z2=z2,
                           h2=h2, gamma=gamma, h2m=h2m, m2=m2, h2d=h2d)
        return logits

    def backward(self, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Exact gradients for every parameter given d(loss)/d(logits)."""
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
        dz2 = dh2 * (c["z2"] > 0)
        grads["w2"] = dz2.T @ c["h1d"]
        grads["b2"] = dz2.sum(axis=0)
        dh1d = dz2 @ p["w2"]
        dh1 = dh1d * c["m1"]
        dz1 = dh1 * (c["z1"] > 0)
        grads["w1"] = dz1.T @ c["x"]
        grads["b1"] = dz1.sum(axis=0)
        return grads


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
    """First/second moment accumulators, one pair per parameter tensor."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params: dict, grads: dict, state: AdamState, lr: float) -> None:
    """One Adam update with decoupled weight decay ``WEIGHT_DECAY``, in place."""
    state.step += 1
    t = state.step
    d1, d2 = ADAM_DECAY
    for key, g in grads.items():
        if key not in state.m:
            state.m[key] = np.zeros_like(params[key])
            state.v[key] = np.zeros_like(params[key])
        m = state.m[key]
        v = state.v[key]
        m += (1 - d1) * (g - m)
        v += (1 - d2) * (g * g - v)
        mhat = m / (1 - d1 ** t)
        vhat = v / (1 - d2 ** t)
        params[key] -= lr * (mhat / (np.sqrt(vhat) + ADAM_EPS) + WEIGHT_DECAY * params[key])


def lr_schedule(epoch: float, n_epochs: int) -> float:
    """Linear learning-rate factor from start to end over the epoch range."""
    if not 0 <= epoch < n_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {n_epochs})")
    if n_epochs == 1:
        return LR_START_FACTOR
    frac = epoch / (n_epochs - 1)
    return LR_START_FACTOR + (LR_END_FACTOR - LR_START_FACTOR) * frac
