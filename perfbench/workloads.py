"""The benchmark's three workloads over the quakeroute public API.

Each workload derives all of its inputs from one seed and builds them in
``setup()``. A round is a fixed list of calls, ``calls()``, so the work of a
round repeats exactly for a seed. Every call belongs to one of two operations:
``work``, the workload's headline, and ``aux``, a second user-visible call
that the headline's optimisation would leave alone. run.py times each call on
its own. ``checks()`` validates a round's output outside the timed region,
using only tolerances the package's own acceptance tests use.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from quakeroute import analysis as an
from quakeroute import dyngraph as dg
from quakeroute import features as ft
from quakeroute import hybrid as hy
from quakeroute import qsim as qs

SIM_TOL = 1e-10   # simulator and gradient parity (acceptance 04, 06)
EIG_TOL = 1e-8    # Fisher positive semi-definiteness (acceptance 07)


@dataclass
class Call:
    op: str                      # "work" or "aux"
    fn: Callable[[], tuple]      # returns (result, items of work done)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(count)]


def _dataset_valid(dataset: ft.Dataset) -> bool:
    """Labels in 0-4 on an unmasked block, all features finite."""
    if len(dataset) == 0:
        return False
    x = dataset.feature_matrix()
    y = dataset.labels()
    if not ((y >= 0) & (y < ft.N_BLOCKS)).all():
        return False
    return bool(np.isfinite(x).all() and ft.block_mask(x)[np.arange(len(y)), y].all())


def _kept(dataset: ft.Dataset) -> int:
    """Scenarios that yielded samples (a skipped scenario yields none)."""
    return len(set(dataset.scenario_ids().tolist()))


def same(a, b) -> bool:
    """Exact equality of nested outputs (floats compared bit for bit)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[k], b[k]) for k in a))
    return a == b


class Workload:
    name = ""
    work_label = ""  # what the work and aux operations measure, for printing
    aux_label = ""

    def setup(self) -> None:
        raise NotImplementedError

    def calls(self) -> list[Call]:
        raise NotImplementedError

    def output(self, results: list):
        """The round's output from the results of ``calls()``, in order."""
        raise NotImplementedError

    def fingerprint(self, output):
        """Exact digest of a round's output; every round must reproduce it."""
        raise NotImplementedError

    def work_counts(self, output) -> dict[str, float]:
        raise NotImplementedError

    def checks(self, output) -> list[tuple[str, bool]]:
        raise NotImplementedError


class TrainWorkload(Workload):
    """Hybrid then classical-only training on the acceptance-smoke corpus."""

    name = "train-8x8"
    work_label = "train_hybrid_samples_per_s"
    aux_label = "train_classical_samples_per_s"
    SCENARIOS = 200
    BATCH = 256
    HYBRID_EPOCHS = 2
    CLASSICAL_EPOCHS = 20
    CLASSICAL_CALLS = 10  # short calls; about as long in all as the hybrid call

    def __init__(self, seed: int):
        self.city_seed, self.data_seed, self.model_seed = _seeds(seed, 3)

    def setup(self) -> None:
        graph = dg.synth_city(8, 8, seed=self.city_seed)
        self.dataset = ft.generate_dataset(graph, self.SCENARIOS, seed=self.data_seed)

    def _train(self, epochs: int, classical_only: bool):
        config = hy.TrainConfig(epochs=epochs, batch_size=self.BATCH,
                                seed=self.model_seed, classical_only=classical_only)
        return hy.train(self.dataset, config), self._train_rows() * epochs

    def _train_rows(self) -> int:
        # hybrid.train trains on this split (or on everything if it is empty)
        train_ds, _ = self.dataset.split(hy.TrainConfig.val_fraction, seed=self.model_seed)
        return len(train_ds) or len(self.dataset)

    def calls(self) -> list[Call]:
        return ([Call("work", lambda: self._train(self.HYBRID_EPOCHS, False))]
                + [Call("aux", lambda: self._train(self.CLASSICAL_EPOCHS, True))]
                * self.CLASSICAL_CALLS)

    def output(self, results):
        return {"hybrid": results[0], "classical": results[1:]}

    def fingerprint(self, output):
        return [(m.quantum_params, m.head_w, m.classical.params, h)
                for m, h in [output["hybrid"], *output["classical"]]]

    def work_counts(self, output) -> dict[str, float]:
        rows = self._train_rows()
        # one history row per epoch that train() actually ran
        epochs = sum(len(h) for _, h in [output["hybrid"], *output["classical"]])
        steps = math.ceil(rows / min(self.BATCH, rows)) * epochs
        kept = _kept(self.dataset)
        return {"work.train_rows": rows, "work.optimizer_steps": steps,
                "work.dataset_samples": len(self.dataset),
                "work.skipped_scenarios": self.SCENARIOS - kept,
                "features.generate_dataset.kept_share": kept / self.SCENARIOS}

    def _grad_parity(self, model: hy.HybridModel) -> bool:
        """ModelKernel.grad against per-parameter shifts on the full circuit."""
        rng = np.random.default_rng(self.model_seed)
        x = self.dataset.feature_matrix()[rng.choice(len(self.dataset), 4, replace=False)]
        main, epi = hy.HybridModel.split_inputs(x)
        upstream = rng.normal(size=(len(x), hy.N_OUT))
        circuit = qs.build_model_circuit(model.model_config)
        n = circuit.n_params
        film = model.model_config.n_film_params
        got = model.kernel.grad(model.quantum_params, main, epi, upstream)
        joint = np.concatenate([main, epi], axis=1)
        for i in (0, film - 1, film, n - film - 1, n - 1):
            jac = qs.param_shift_grad(circuit, model.quantum_params, joint, index=i)
            if abs(got[i] - float((jac * upstream).sum())) > SIM_TOL:
                return False
        return True

    def checks(self, output) -> list[tuple[str, bool]]:
        (model, hist), (_, chist) = output["hybrid"], output["classical"][0]
        losses = [r[k] for r in hist + chist for k in ("train_loss", "val_loss") if k in r]
        hybrid_losses = [r["train_loss"] for r in hist]
        return [
            ("dataset labels valid", _dataset_valid(self.dataset)),
            ("train losses finite", bool(np.isfinite(losses).all())),
            ("hybrid loss falls every epoch",
             all(b < a for a, b in zip(hybrid_losses, hybrid_losses[1:]))),
            ("kernel grad matches parameter shift", self._grad_parity(model)),
        ]


class RolloutWorkload(Workload):
    """Model-versus-oracle evaluation with an untrained model.

    Untrained, the model mostly wanders to the 2 x n_nodes step budget of 128
    decisions, and no change to training arithmetic can alter its paths.
    Each evaluate call covers one scenario, so that calls stay short.
    """

    name = "rollout-8x8"
    work_label = "eval_decisions_per_s"
    aux_label = "batch1_forwards_per_s"
    SCENARIOS = 2
    FORWARDS = 128  # batch-1 forwards per aux call (one per decision of a scenario)

    def __init__(self, seed: int):
        self.city_seed, self.scenario_seed, self.model_seed, self.probe_seed = _seeds(seed, 4)

    def setup(self) -> None:
        self.graph = dg.synth_city(8, 8, seed=self.city_seed)
        self.model = hy.HybridModel(seed=self.model_seed)
        rng = np.random.default_rng(self.probe_seed)
        self.probes = rng.uniform(0.0, 1.0, (self.SCENARIOS, self.FORWARDS, ft.N_FEATURES))

    def _evaluate(self, i: int):
        report = hy.evaluate(self.model, self.graph, 1, seed=self.scenario_seed + i)
        return report, sum(r.model_steps for r in report.records)

    def _forwards(self, i: int):
        return np.stack([hy.hybrid_forward(self.model, v) for v in self.probes[i]]), self.FORWARDS

    def calls(self) -> list[Call]:
        calls = []
        for i in range(self.SCENARIOS):
            calls.append(Call("work", lambda i=i: self._evaluate(i)))
            calls.append(Call("aux", lambda i=i: self._forwards(i)))
        return calls

    def output(self, results):
        return {"reports": results[0::2], "logits": np.stack(results[1::2])}

    def fingerprint(self, output):
        return [[r.to_dict() for r in output["reports"]], output["logits"]]

    def work_counts(self, output) -> dict[str, float]:
        records = [r for report in output["reports"] for r in report.records]
        return {"work.model_decisions": sum(r.model_steps for r in records),
                "work.oracle_decisions": sum(r.dij_steps for r in records),
                "hybrid.arrival_share": sum(r.model_reached for r in records) / len(records)}

    def checks(self, output) -> list[tuple[str, bool]]:
        reports = output["reports"]
        return [
            ("one record per scenario", all(len(r.records) == 1 for r in reports)),
            ("every oracle path reached",
             all(rec.dij_reached for r in reports for rec in r.records)),
            ("batch-1 logits finite", bool(np.isfinite(output["logits"]).all())),
        ]


class DiagnosticsWorkload(Workload):
    """The paper's Fourier tables and Fisher sweep on the mini circuit."""

    name = "diagnostics"
    work_label = "fourier_draws_per_s"
    aux_label = "fisher_realizations_per_s"
    FOURIER_K = (1, 2, 3)
    FOURIER_DRAWS = 1000
    FISHER = tuple((n, k) for n in (1, 2) for k in (1, 2, 3))
    FISHER_MAIN = (1, 3)  # the one include_main run
    FISHER_X = 20
    FISHER_THETA = 20

    def __init__(self, seed: int):
        self.fourier_seed, self.fisher_seed, self.qasm_seed = _seeds(seed, 3)

    def setup(self) -> None:
        self.circuit = qs.build_model_circuit()
        rng = np.random.default_rng(self.qasm_seed)
        params = rng.uniform(-np.pi, np.pi, self.circuit.n_params)
        feats = rng.uniform(0.0, 1.0, self.circuit.n_features)
        self.qasm = qs.export_qasm3(self.circuit, params, feats)

    def _fourier(self, k: int):
        rng = np.random.default_rng([self.fourier_seed, k])
        return an.sample_fourier(an.MiniConfig(1, k), self.FOURIER_DRAWS, rng), self.FOURIER_DRAWS

    def _fisher(self, i: int, n: int, k: int, include_main: bool = False):
        rng = np.random.default_rng([self.fisher_seed, i])
        result = an.fisher_matrix(an.MiniConfig(n, k), self.FISHER_X, self.FISHER_THETA,
                                  rng, include_main=include_main)
        return (result, an.fisher_spectrum(result.matrix)), self.FISHER_THETA

    def calls(self) -> list[Call]:
        calls = [Call("work", lambda k=k: self._fourier(k)) for k in self.FOURIER_K]
        calls += [Call("aux", lambda i=i, nk=nk: self._fisher(i, *nk))
                  for i, nk in enumerate(self.FISHER)]
        calls.append(Call("aux", lambda: self._fisher(len(self.FISHER), *self.FISHER_MAIN,
                                                      include_main=True)))
        return calls

    def output(self, results):
        k = len(self.FOURIER_K)
        return {"fourier": results[:k], "fisher": [r for r, _ in results[k:]],
                "spectra": [s for _, s in results[k:]]}

    def fingerprint(self, output):
        return ([f.coeffs for f in output["fourier"]]
                + [r.matrix for r in output["fisher"]]
                + [s.eigenvalues for s in output["spectra"]])

    def work_counts(self, output) -> dict[str, float]:
        return {"work.fourier_draws": sum(f.coeffs.shape[0] for f in output["fourier"]),
                "work.fisher_realizations": sum(len(r.per_realization)
                                                for r in output["fisher"])}

    def _qasm_matches_census(self) -> bool:
        emitted = {"rx": 0, "ry": 0, "rz": 0, "cx": 0}
        for line in self.qasm.splitlines():
            m = re.match(r"^(r[xyz])\(|^(cx) ", line)
            if m:
                emitted[m.group(1) or m.group(2)] += 1
        return emitted == self.circuit.census()

    def checks(self, output) -> list[tuple[str, bool]]:
        def symmetric_psd(f):
            return (np.abs(f - f.T).max() < SIM_TOL
                    and np.linalg.eigvalsh(f).min() > -EIG_TOL)

        def conjugate_symmetric(c):
            return np.abs(c - c[:, ::-1, ::-1].conj()).max() < SIM_TOL

        return [
            ("Fisher matrices symmetric PSD",
             all(symmetric_psd(r.matrix) for r in output["fisher"])),
            ("Fourier tables conjugate-symmetric",
             all(conjugate_symmetric(f.coeffs) for f in output["fourier"])),
            ("QASM export matches census", self._qasm_matches_census()),
        ]


WORKLOADS = {w.name: w for w in (TrainWorkload, RolloutWorkload, DiagnosticsWorkload)}
