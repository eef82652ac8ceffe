"""Parallel hybrid network: classical and quantum FiLM branches behind one head.

Both branches see the same sample (epicenter conditioning plus 34 main
features); their five-value outputs are concatenated and reduced to five
logits by a trainable dense head. Classical gradients come from backprop,
quantum gradients from the kernel's adjoint sweep; rollouts and ``agreement``
take one move rule, ``masked_choice``. The checkpoint layout stays beside
``HybridModel.load``, which reads it through ``files.read_json``.
"""
from __future__ import annotations

import logging
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path as FilePath
from typing import ClassVar

import numpy as np

from . import features as feat, files, neural, oracle, qsim
from .dyngraph import SIGMA_FRAC, CityGraph, Scenario, random_scenarios
from .neural import AdamState, adam_step, cross_entropy, lr_schedule
from .oracle import Path

log = logging.getLogger(__name__)

N_OUT = feat.N_BLOCKS  # each branch's width, and the head's: one logit per block
CLASSICAL_LR = 1e-3  # scaled by neural.lr_schedule each epoch
QUANTUM_LR = 1e-3


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 2000
    seed: int = 0
    classical_only: bool = False
    val_fraction: ClassVar[float] = 0.1  # share of the scenarios held out for validation


def quantum_share(head_w: np.ndarray) -> float:
    """Relative Frobenius weight of the quantum head block.

    0 means the head ignores the quantum branch entirely, 0.5 means both
    branches carry equal weight.
    """
    head_w = np.asarray(head_w, float)
    if head_w.shape != (N_OUT, 2 * N_OUT):
        raise ValueError(f"head must be ({N_OUT}, {2 * N_OUT}), got {head_w.shape}")
    w_c = np.linalg.norm(head_w[:, :N_OUT])
    w_q = np.linalg.norm(head_w[:, N_OUT:])
    if w_c == 0.0 and w_q == 0.0:
        return 0.5
    return float(w_q / (w_q + w_c))


class HybridModel:
    """Trainable parameters of both branches plus the combining head."""

    def __init__(self, seed: int = 0, classical_only: bool = False):
        rng = np.random.default_rng(seed)
        self.classical_only = classical_only
        self.model_config = qsim.ModelConfig()
        self.classical = neural.ClassicalFilmNet(seed=int(rng.integers(2**32)))
        self.quantum_params = rng.uniform(-np.pi, np.pi, self.model_config.n_params)
        head_w = neural.kaiming_uniform(rng, (N_OUT, 2 * N_OUT), 2 * N_OUT)
        if classical_only:
            head_w[:, N_OUT:] = 0.0
        # the classical optimizer group: one vector, of which the net's arrays and
        # then the head's are views, so that one adam_step updates them all
        arrays = {**self.classical.params, "head_w": head_w, "head_b": np.zeros(N_OUT)}
        self.classical_group = np.concatenate([a.ravel() for a in arrays.values()])
        ends = np.cumsum([a.size for a in arrays.values()]).tolist()
        views = {key: self.classical_group[end - a.size:end].reshape(a.shape)
                 for (key, a), end in zip(arrays.items(), ends)}
        self.head_w, self.head_b = views.pop("head_w"), views.pop("head_b")
        self.classical.params = views
        self._kernel = None
        self._branches = None

    @property
    def kernel(self) -> qsim.ModelKernel:
        if self._kernel is None:
            self._kernel = qsim.ModelKernel()
        return self._kernel

    @staticmethod
    def split_inputs(features: np.ndarray):
        """Dataset vectors are [x_epi, y_epi, <34 main values>]."""
        features = np.atleast_2d(np.asarray(features, float))
        if features.shape[1] != feat.N_FEATURES:
            raise ValueError(f"expected {feat.N_FEATURES}-value features")
        return features[:, feat.N_EPI:], features[:, :feat.N_EPI]

    def forward(self, features: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Logits (B, 5) from both branches' outputs; an ``rng`` turns on dropout."""
        main, epi = self.split_inputs(features)
        c_out = self.classical.forward(main, epi, rng=rng)
        q_out = (np.zeros_like(c_out) if self.classical_only
                 else self.kernel.expectations(self.quantum_params, main, epi))
        self._branches = np.concatenate([c_out, q_out], axis=1)
        return neural.dense(self._branches, self.head_w, self.head_b)

    def loss_grads(self, features, labels, mask, rng: np.random.Generator | None = None):
        """Loss, the gradients of every parameter group, and the rows' dropout-free
        logits, bit for bit a ``forward`` without ``rng`` (which turns on dropout),
        from the classical net's ``rescore`` and this forward's quantum outputs."""
        main, epi = self.split_inputs(features)
        logits = self.forward(features, rng=rng)
        loss, dlogits = cross_entropy(logits, labels, mask)
        head_grads = {"head_w": dlogits.T @ self._branches, "head_b": dlogits.sum(axis=0)}
        dboth = dlogits @ self.head_w
        classical_grads = self.classical.backward(dboth[:, :N_OUT])
        # classical-only, the quantum outputs are zeros: so is the head's gradient there
        quantum_grad = (np.zeros_like(self.quantum_params) if self.classical_only else
                        self.kernel.grad(self.quantum_params, main, epi, dboth[:, N_OUT:]))
        self._branches[:, :N_OUT] = self.classical.rescore()
        return (loss, classical_grads, head_grads, quantum_grad,
                neural.dense(self._branches, self.head_w, self.head_b))

    # -- checkpoints ---------------------------------------------------------

    def _arrays(self) -> dict[str, np.ndarray]:
        """Every parameter array under its checkpoint key."""
        return {**{f"classical.{k}": v for k, v in self.classical.params.items()},
                "quantum": self.quantum_params, "head_w": self.head_w, "head_b": self.head_b}

    def save(self, path: str | FilePath) -> None:
        files.write_json(path, {
            "format": "quakeroute-checkpoint",
            "classical_only": self.classical_only,
            "params": {key: {"shape": list(a.shape), "data": [float(x) for x in a.ravel()]}
                       for key, a in self._arrays().items()},
        }, indent=None)

    @staticmethod
    def load(path: str | FilePath) -> "HybridModel":
        """Read a ``save`` file with ``files.read_json``: anything but the layout that
        ``save`` writes for the model's shapes and ``format`` tag raises a ValueError."""
        model = HybridModel(seed=0)
        arrays = model._arrays()

        def build(doc):
            model.classical_only = doc["classical_only"]
            for key, a in arrays.items():
                a[...] = np.reshape(doc["params"][key]["data"], a.shape)
            return model

        layout = {"format": "quakeroute-checkpoint", "classical_only": "a boolean",
                  "params": {key: {"shape": a.shape, "data": ("a finite float",) * a.size}
                             for key, a in arrays.items()}}
        return files.read_json(path, layout, build)


def hybrid_forward(model: HybridModel, features) -> np.ndarray:
    """Logits for one stored sample vector (or a batch of them)."""
    features = np.asarray(features, float)
    logits = model.forward(features)
    return logits[0] if features.ndim == 1 else logits


# ---------------------------------------------------------------------------
# Training


def train(dataset: feat.Dataset, config: TrainConfig = TrainConfig()):
    """Minibatch CE training of both branches; returns (model, history).

    Deterministic in the seed: the split, the shuffles, the dropout masks and
    the initialization all derive from it. The classical learning rate follows
    the linear epoch schedule; the quantum rate stays constant. A non-finite
    train or validation loss stops training with a ValueError. ``train_agreement``
    scores each step's rows before their update with the dropout-free logits of
    ``loss_grads`` (from the step's first layer and circuit run), so it lags the
    epoch's end. ``classical_group`` and the quantum parameters are one
    ``adam_step`` each.
    """
    if len(dataset) == 0:
        raise ValueError("training needs a non-empty dataset")
    for name in ("epochs", "batch_size"):
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(config, name)}")
    train_ds, val_ds = dataset.split(config.val_fraction, seed=config.seed)
    model = HybridModel(seed=config.seed, classical_only=config.classical_only)
    x, y, m = train_ds.feature_matrix(), train_ds.labels(), feat.block_mask(train_ds.features)
    xv, yv, mv = val_ds.feature_matrix(), val_ds.labels(), feat.block_mask(val_ds.features)

    seq = np.random.SeedSequence(config.seed)
    shuffle_rng, dropout_rng = [np.random.default_rng(s) for s in seq.spawn(2)]
    opt_classical, opt_quantum = AdamState(), AdamState()
    n = len(x)
    batch = min(config.batch_size, n)
    history: list[dict] = []
    for epoch in range(config.epochs):
        factor = lr_schedule(epoch, config.epochs)
        perm = shuffle_rng.permutation(n)
        losses, scores = [], np.empty((n, N_OUT))  # each row's dropout-free logits at its step
        for lo in range(0, n, batch):
            idx = perm[lo:lo + batch]
            loss, cg, hg, qg, scores[idx] = model.loss_grads(x[idx], y[idx], m[idx],
                                                              rng=dropout_rng)
            losses.append(loss)
            group_grad = np.concatenate([g.ravel() for g in (*cg.values(), *hg.values())])
            adam_step(model.classical_group, group_grad, opt_classical, lr=CLASSICAL_LR * factor)
            if not config.classical_only:
                adam_step(model.quantum_params, qg, opt_quantum, lr=QUANTUM_LR)
        row = {"epoch": epoch, "lr_factor": factor,
               "train_loss": float(np.mean(losses)),
               "train_agreement": agreement(scores, y, m)}
        if len(xv):
            val_logits = model.forward(xv)
            row["val_loss"], _ = cross_entropy(val_logits, yv, mv)
            row["val_agreement"] = agreement(val_logits, yv, mv)
        for key in ("train_loss", "val_loss"):
            if not np.isfinite(row.get(key, 0.0)):
                raise ValueError(f"epoch {epoch}: {key} is {row[key]}, training diverged")
        history.append(row)
        if epoch % 10 == 0 or epoch == config.epochs - 1:
            log.info("epoch %3d  train loss %.4f  val agreement %s", epoch,
                     row["train_loss"], row.get("val_agreement"))
    return model, history


def masked_choice(logits, mask) -> np.ndarray:
    """Each row's first real block (boolean ``mask`` True) of largest logit, a real
    -inf counting as the lowest float and a masked block as -inf (a NaN wins, as in
    ``argmax``); -1, the stop of ``oracle.lockstep``, for a row with no real block."""
    pick = np.where(mask, np.maximum(logits, np.finfo(float).min), -np.inf).argmax(axis=1)
    return np.where(mask.any(axis=1), pick, -1)


def agreement(logits, y, mask) -> float:
    """Fraction of samples whose ``masked_choice`` matches the oracle label; a row
    with no real block chooses -1, a miss."""
    return float((masked_choice(logits, mask) == y).mean())


# ---------------------------------------------------------------------------
# Rollouts and evaluation


def rollout(model: HybridModel, graph: CityGraph, scenarios: list[Scenario],
            sigma_frac: float = SIGMA_FRAC) -> list[Path]:
    """Drive the model through the scenarios in lockstep, by ``masked_choice``.

    A row at a node without arcs stops there, as the oracle's stops where its
    exit is unreachable. Each world step scores every unfinished scenario in one
    batched forward, whose logits may differ from a batch-1 forward's in the last
    bits (BLAS in the classical net and the readout); so each path is the one its
    scenario takes alone unless two unmasked logits tie within rounding.
    """
    def model_next(world, rows, here):
        x = feat.build_feature_vector(world, here)
        return masked_choice(model.forward(x), feat.block_mask(x)).tolist()

    return oracle.lockstep(graph, scenarios, sigma_frac, model_next)


@dataclass
class PathRecord:
    scenario_id: int
    start: int
    exit: int
    model_reached: bool
    model_cost: float
    model_steps: int
    dij_reached: bool
    dij_cost: float
    dij_steps: int
    accuracy: float | None


@dataclass
class EvalReport:
    """Rollout quality summary: arrival, mean accuracy, better-or-equal share."""

    arrival_rate: float
    mean_accuracy: float
    better_or_equal_rate: float
    n_scenarios: int
    quantum_share: float
    records: list[PathRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)  # records included, each as a dict

    def save_json(self, path: str | FilePath) -> None:
        files.write_json(path, self.to_dict())

    def save_csv(self, path: str | FilePath) -> None:
        files.write_csv(path, list(PathRecord.__dataclass_fields__), map(astuple, self.records))


def evaluate(model: HybridModel, graph: CityGraph, n_scenarios: int, seed: int,
             sigma_frac: float = SIGMA_FRAC) -> EvalReport:
    """Run model and oracle over fresh random scenarios and score the paths.

    Failed model rollouts count against the arrival rate but are excluded
    from mean accuracy and the better-or-equal share.
    """
    scenarios = random_scenarios(graph, n_scenarios, seed)
    paths = zip(rollout(model, graph, scenarios, sigma_frac),
                oracle.nodewise_dijkstra(graph, scenarios, sigma_frac))
    records = []
    for i, (scenario, (model_path, dij_path)) in enumerate(zip(scenarios, paths)):
        acc = (oracle.path_accuracy(dij_path.total_cost, model_path.total_cost)
               if model_path.reached and dij_path.reached else None)
        records.append(PathRecord(
            scenario_id=i, start=scenario.start, exit=scenario.chosen_exit,
            model_reached=model_path.reached, model_cost=model_path.total_cost,
            model_steps=len(model_path) - 1, dij_reached=dij_path.reached,
            dij_cost=dij_path.total_cost, dij_steps=len(dij_path) - 1, accuracy=acc,
        ))
    arrival = oracle.arrival_rate([r.model_reached for r in records])
    scored = [r for r in records if r.accuracy is not None]
    mean_acc = float(np.mean([r.accuracy for r in scored])) if scored else 0.0
    boe = (oracle.better_or_equal_rate([(r.dij_cost, r.model_cost) for r in scored])
           if scored else 0.0)
    return EvalReport(arrival_rate=arrival, mean_accuracy=mean_acc,
                      better_or_equal_rate=boe, n_scenarios=n_scenarios,
                      quantum_share=quantum_share(model.head_w), records=records)
