import dataclasses
import json
import math

import numpy as np
import pytest

import quakeroute.dyngraph as dg
import quakeroute.features as ft
import quakeroute.hybrid as hy
import quakeroute.neural as nn
import quakeroute.oracle as oc
import quakeroute.qsim as qs
from conftest import scenario_for
from helpers import replay_train, sorted_adjacency


def _tiny_dataset(n_scenarios=8, seed=5):
    g = dg.synth_city(4, 4, seed=1)
    return g, ft.generate_dataset(g, n_scenarios, seed=seed)


def test_kernel_recompiles_on_new_parameter_values(tmp_path):
    """The compiled blocks follow the parameter values: an in-place optimizer
    step or a loaded checkpoint gives exactly a fresh kernel's output."""
    rng = np.random.default_rng(16)
    feats, epi = rng.uniform(0, 1, (3, 34)), rng.uniform(0, 1, (3, 2))
    model = hy.HybridModel(seed=3)
    before = model.kernel.expectations(model.quantum_params, feats, epi)
    nn.adam_step(model.quantum_params, rng.normal(size=228), nn.AdamState(), lr=0.1)
    after = model.kernel.expectations(model.quantum_params, feats, epi)
    assert not np.allclose(after, before)
    fresh = qs.ModelKernel().expectations(model.quantum_params, feats, epi)
    assert np.array_equal(after, fresh)
    hy.HybridModel(seed=4).save(tmp_path / "other.json")
    loaded = hy.HybridModel.load(tmp_path / "other.json").quantum_params
    assert np.array_equal(model.kernel.expectations(loaded, feats, epi),
                          qs.ModelKernel().expectations(loaded, feats, epi))


def test_loss_grads_simulates_the_circuit_once(monkeypatch):
    """The quantum gradient starts from the forward's states: a training step
    computes each of the three sections' phase vectors once."""
    rows = []
    phases = qs._Section.phases
    monkeypatch.setattr(qs._Section, "phases",
                        lambda section, x: rows.append(len(x)) or phases(section, x))
    rng = np.random.default_rng(8)
    model = hy.HybridModel(seed=2)
    model.loss_grads(rng.uniform(0, 1, (6, 36)), rng.integers(0, 5, 6), np.ones((6, 5), bool),
                     rng=rng)
    assert rows == [6, 6, 6]


@pytest.mark.parametrize("change", ["nothing", "params", "features"])
def test_grad_after_a_forward_equals_a_fresh_kernel(change):
    """A gradient that reuses the last forward, or has to run its own because an
    in-place optimizer step or other feature rows made that forward stale, is
    bit for bit a fresh kernel's gradient."""
    rng = np.random.default_rng(21)
    feats, epi = rng.uniform(0, 1, (4, 34)), rng.uniform(0, 1, (4, 2))
    upstream = rng.normal(size=(4, 5))
    model = hy.HybridModel(seed=5)
    model.kernel.expectations(model.quantum_params, feats, epi)
    if change == "params":
        nn.adam_step(model.quantum_params, rng.normal(size=228), nn.AdamState(), lr=0.1)
    elif change == "features":
        feats = rng.uniform(0, 1, feats.shape)
    got = model.kernel.grad(model.quantum_params, feats, epi, upstream)
    want = qs.ModelKernel().grad(model.quantum_params, feats, epi, upstream)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("classical_only", [False, True])
def test_train_runs_the_kernel_once_per_step(monkeypatch, classical_only):
    """A step's forward serves its gradient and its rows' agreement, so a hybrid
    epoch of S steps simulates the circuit S + 1 times (its steps and the
    validation rows), each simulation computing its three sections' phase
    vectors once, and runs S gradients; a classical-only epoch runs neither."""
    phases, grads = [], []
    section_phases, kernel_grad = qs._Section.phases, qs.ModelKernel.grad
    monkeypatch.setattr(qs._Section, "phases",
                        lambda section, x: phases.append(len(x)) or section_phases(section, x))
    monkeypatch.setattr(qs.ModelKernel, "grad",
                        lambda *args: grads.append(1) or kernel_grad(*args))
    _, ds = _tiny_dataset()
    epochs, batch = 3, 8
    train_ds, val_ds = ds.split(hy.TrainConfig.val_fraction, seed=0)
    steps = math.ceil(len(train_ds) / batch)
    assert steps >= 2 and len(val_ds) > 0
    hy.train(ds, hy.TrainConfig(epochs=epochs, batch_size=batch, seed=0,
                                classical_only=classical_only))
    hybrid_epochs = 0 if classical_only else epochs
    assert (len(phases), len(grads)) == (3 * (steps + 1) * hybrid_epochs, steps * hybrid_epochs)


def test_a_repeat_forward_simulates_nothing_and_returns_a_copy(monkeypatch):
    """The kept forward serves a second ``expectations`` call at the same
    parameter values and rows, bit for bit; what the caller does with one
    result leaves the next unchanged."""
    rng = np.random.default_rng(30)
    feats, epi = rng.uniform(0, 1, (4, 34)), rng.uniform(0, 1, (4, 2))
    kernel, params = qs.ModelKernel(), rng.uniform(-np.pi, np.pi, 228)
    first = kernel.expectations(params, feats, epi)
    want = first.copy()
    first[:] = 7.0
    runs, section_run = [], qs._Section.run
    monkeypatch.setattr(qs._Section, "run", lambda *args: runs.append(1) or section_run(*args))
    assert np.array_equal(kernel.expectations(params.copy(), feats.copy(), epi), want)
    assert runs == []


@pytest.mark.parametrize("classical_only", [False, True])
def test_train_agreement_scores_each_step_before_its_update(classical_only):
    """``train_agreement`` equals a replay that scores each step's rows with a
    full eval-mode forward, kernel included, before the step's update; the
    replay's parameters are train's, bit for bit."""
    _, ds = _tiny_dataset()
    config = hy.TrainConfig(epochs=3, batch_size=8, seed=1, classical_only=classical_only)
    model, history = hy.train(ds, config)
    replayed, stepwise, _ = replay_train(ds, config)
    assert [row["train_agreement"] for row in history] == stepwise
    for key, a in model._arrays().items():
        assert np.array_equal(a, replayed._arrays()[key])


@pytest.mark.parametrize("classical_only", [False, True])
def test_step_scores_are_a_fresh_forward_bit_for_bit(classical_only):
    """The dropout-free logits that ``loss_grads`` returns, which ``train`` scores
    each step with, are bit for bit a dropout-free ``forward`` of a copy of the
    model at the same parameters, with a kernel of its own: after training
    steps, with dropout on."""
    _, ds = _tiny_dataset()
    model, _ = hy.train(ds, hy.TrainConfig(epochs=2, batch_size=16, seed=3,
                                           classical_only=classical_only))
    copy = hy.HybridModel(seed=0, classical_only=classical_only)
    for key, a in copy._arrays().items():
        a[...] = model._arrays()[key]
    x, y, m = ds.feature_matrix()[:40], ds.labels()[:40], ft.block_mask(ds.features[:40])
    *_, scores = model.loss_grads(x, y, m, rng=np.random.default_rng(4))
    assert np.array_equal(scores, copy.forward(x))


@pytest.mark.parametrize("classical_only", [False, True])
def test_one_step_epochs_score_the_previous_epochs_end(classical_only):
    """With one step per epoch, ``train_agreement`` reads the parameters that the
    previous epoch ended with: the first epoch scores the initial model."""
    _, ds = _tiny_dataset()
    config = hy.TrainConfig(epochs=4, batch_size=2000, seed=1, classical_only=classical_only)
    _, history = hy.train(ds, config)
    _, _, at_end = replay_train(ds, config)
    train_ds, _ = ds.split(config.val_fraction, seed=config.seed)
    initial = hy.HybridModel(seed=config.seed, classical_only=classical_only)
    start = hy.agreement(initial.forward(train_ds.feature_matrix()), train_ds.labels(),
                         ft.block_mask(train_ds.features))
    assert [row["train_agreement"] for row in history] == [start] + at_end[:-1]


def test_quantum_share_values():
    w = np.ones((5, 10))
    assert hy.quantum_share(w) == 0.5
    w[:, 5:] = 0.0
    assert hy.quantum_share(w) == 0.0
    rng = np.random.default_rng(0)
    for _ in range(20):
        share = hy.quantum_share(rng.normal(0, 1, (5, 10)))
        assert 0.0 <= share <= 1.0
    with pytest.raises(ValueError):
        hy.quantum_share(np.ones((5, 9)))


def test_forward_zero_quantum_head_equals_classical_head():
    model = hy.HybridModel(seed=2)
    rng = np.random.default_rng(1)
    feats = rng.uniform(0, 1, (6, 36))
    model.head_w[:, 5:] = 0.0
    got = model.forward(feats)
    main, epi = model.split_inputs(feats)
    c_out = model.classical.forward(main, epi)
    want = c_out @ model.head_w[:, :5].T + model.head_b
    assert np.allclose(got, want, atol=1e-12)


def test_forward_matches_branch_composition():
    model = hy.HybridModel(seed=3)
    rng = np.random.default_rng(2)
    feats = rng.uniform(0, 1, (4, 36))
    main, epi = model.split_inputs(feats)
    c_out = model.classical.forward(main, epi)
    q_out = model.kernel.expectations(model.quantum_params, main, epi)
    want = np.concatenate([c_out, q_out], axis=1) @ model.head_w.T + model.head_b
    assert np.allclose(model.forward(feats), want, atol=1e-12)
    single = hy.hybrid_forward(model, feats[0])
    assert single.shape == (5,)
    assert np.allclose(single, want[0], atol=1e-12)


def test_classical_only_ablation():
    model = hy.HybridModel(seed=4, classical_only=True)
    assert np.allclose(model.head_w[:, 5:], 0.0)
    feats = np.random.default_rng(3).uniform(0, 1, (3, 36))
    _, cg, hg, qg, _ = model.loss_grads(feats, np.zeros(3, int),
                                        np.ones((3, 5), bool))
    assert np.allclose(qg, 0.0)
    assert np.allclose(hg["head_w"][:, 5:], 0.0)


def test_loss_at_zeroed_head_is_masked_uniform():
    model = hy.HybridModel(seed=5)
    model.head_w[:] = 0.0
    model.head_b[:] = 0.0
    rng = np.random.default_rng(4)
    feats = rng.uniform(0, 1, (10, 36))
    masks = np.zeros((10, 5), bool)
    n_valid = rng.integers(2, 6, 10)
    labels = np.zeros(10, int)
    for i, k in enumerate(n_valid):
        masks[i, :k] = True
        labels[i] = rng.integers(0, k)
    loss, *_ = model.loss_grads(feats, labels, masks)
    assert loss == pytest.approx(np.mean(np.log(n_valid)), abs=1e-9)


def test_hybrid_gradients_match_finite_differences():
    model = hy.HybridModel(seed=6)
    rng = np.random.default_rng(5)
    feats = rng.uniform(0, 1, (4, 36))
    labels = rng.integers(0, 5, 4)
    mask = np.ones((4, 5), bool)
    loss, cg, hg, qg, _ = model.loss_grads(feats, labels, mask)

    def loss_now():
        return nn.cross_entropy(model.forward(feats), labels, mask)[0]

    h = 1e-5
    for i in rng.choice(228, 8, replace=False):
        old = model.quantum_params[i]
        model.quantum_params[i] = old + h
        lp = loss_now()
        model.quantum_params[i] = old - h
        lm = loss_now()
        model.quantum_params[i] = old
        assert qg[i] == pytest.approx((lp - lm) / (2 * h), abs=1e-4)
    for (arr, g) in ((model.head_w, hg["head_w"]), (model.head_b, hg["head_b"])):
        flat = arr.ravel()
        for k in rng.choice(flat.size, 3, replace=False):
            old = flat[k]
            flat[k] = old + h
            lp = loss_now()
            flat[k] = old - h
            lm = loss_now()
            flat[k] = old
            assert g.ravel()[k] == pytest.approx((lp - lm) / (2 * h), abs=1e-6)
    for name in ("w3", "film_scale_w"):
        flat = model.classical.params[name].ravel()
        for k in rng.choice(flat.size, 3, replace=False):
            old = flat[k]
            flat[k] = old + h
            lp = loss_now()
            flat[k] = old - h
            lm = loss_now()
            flat[k] = old
            assert cg[name].ravel()[k] == pytest.approx((lp - lm) / (2 * h),
                                                        abs=1e-6)


def test_one_epoch_decreases_loss_for_most_seeds(monkeypatch):
    # dropout off so the per-epoch losses are comparable
    monkeypatch.setattr(nn, "DROPOUT", 0.0)
    monkeypatch.setattr(hy.TrainConfig, "val_fraction", 0.0)
    _, ds = _tiny_dataset()
    small = ds[:10]
    improved = 0
    for seed in range(5):
        cfg = hy.TrainConfig(epochs=2, batch_size=10, seed=seed)
        _, hist = hy.train(small, cfg)
        if hist[-1]["train_loss"] < hist[0]["train_loss"]:
            improved += 1
    assert improved >= 4


def test_training_is_reproducible():
    _, ds = _tiny_dataset()
    runs = []
    for _ in range(2):
        model, hist = hy.train(ds, hy.TrainConfig(epochs=2, batch_size=64,
                                                  seed=7))
        runs.append((model.quantum_params.copy(), model.head_w.copy(),
                     {k: v.copy() for k, v in model.classical.params.items()},
                     hist[-1]["train_loss"]))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    for k in runs[0][2]:
        assert np.array_equal(runs[0][2][k], runs[1][2][k])
    assert runs[0][3] == runs[1][3]


def test_checkpoint_roundtrip(tmp_path):
    model, _ = hy.train(_tiny_dataset()[1],
                        hy.TrainConfig(epochs=1, batch_size=32, seed=1))
    path = tmp_path / "ckpt.json"
    model.save(path)
    loaded = hy.HybridModel.load(path)
    feats = np.random.default_rng(0).uniform(0, 1, (3, 36))
    assert np.allclose(model.forward(feats), loaded.forward(feats), atol=1e-12)


def _edited_checkpoint(tmp_path, edit):
    path = tmp_path / "ckpt.json"
    hy.HybridModel(seed=3).save(path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("edit", [
    lambda doc: doc["params"].pop("quantum"),                       # missing key
    lambda doc: doc["params"].pop("classical.film_scale_w"),
    lambda doc: doc.pop("classical_only"),
    lambda doc: doc["params"].update(extra=doc["params"]["head_b"]),  # extra key
    lambda doc: doc.update(notes="hello"),
    lambda doc: doc["params"].update(                              # mis-shaped
        head_b={"shape": [3], "data": [0.0, 0.0, 0.0]}),
    lambda doc: doc["params"]["quantum"].update(shape=[12, 19]),
    lambda doc: doc["params"]["head_w"]["data"].pop(),
    lambda doc: doc["params"]["head_b"]["data"].__setitem__(0, float("nan")),  # non-finite
    lambda doc: doc["params"]["quantum"]["data"].__setitem__(5, float("inf")),
    lambda doc: doc["params"]["head_b"]["data"].__setitem__(0, 10**400),
    lambda doc: doc["params"].update(head_b=5),                    # not an object
    lambda doc: doc.update(classical_only="no"),                   # not a boolean
])
def test_checkpoint_load_rejects_partial_or_misshaped(tmp_path, edit):
    path = _edited_checkpoint(tmp_path, edit)
    with pytest.raises(ValueError) as info:
        hy.HybridModel.load(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("edit, problem", [
    (lambda doc: doc["params"]["classical.w1"]["data"].__setitem__(17, float("nan")),
     "params.classical.w1.data[17] is nan, not a finite float"),
    (lambda doc: doc["params"]["classical.w1"]["data"].pop(),
     "params.classical.w1.data is not a length-3400 JSON list"),
])
def test_checkpoint_load_names_the_bad_value(tmp_path, edit, problem):
    path = _edited_checkpoint(tmp_path, edit)
    with pytest.raises(ValueError) as info:
        hy.HybridModel.load(path)
    assert str(info.value) == f"{path}: {problem}"


def test_masked_choice_takes_only_real_blocks_and_stops_a_row_without_one():
    """Logits of +/-inf, NaN and +/-1e308 at real and masked blocks: the rule never
    takes a masked block, gives -1 to the row without a real block alone, and
    ``agreement`` counts that row as a miss whatever its label."""
    inf, nan, big = np.inf, np.nan, 1e308
    mask = np.array([[1, 1, 0, 0, 0],    # every real logit -inf: the first real block
                     [1, 1, 1, 0, 0],    # NaN wins, as in argmax
                     [1, 1, 0, 0, 0],    # both far below -1e30
                     [0, 0, 0, 0, 0],    # no real block: stop
                     [1, 1, 1, 1, 1],
                     [0, 1, 0, 1, 0],
                     [0, 0, 0, 1, 0]], bool)
    logits = np.array([[-inf, -inf, inf, nan, big],
                       [1.0, nan, 2.0, inf, inf],
                       [-big, -big / 2, big, inf, nan],
                       [big, inf, nan, 0.0, -inf],
                       [big, inf, -big, -inf, 0.0],
                       [inf, -inf, inf, -big, nan],
                       [inf, inf, inf, -inf, inf]])
    choice = hy.masked_choice(logits, mask)
    assert choice.tolist() == [0, 1, 1, -1, 1, 3, 3]
    rng = np.random.default_rng(0)  # and on random rows of the same values
    mask = rng.random((500, 5)) < 0.4
    logits = rng.choice([inf, -inf, nan, big, -big, 0.0, 1.0], (500, 5))
    choice = hy.masked_choice(logits, mask)
    stops = mask.sum(axis=1) == 0
    assert stops.any() and np.array_equal(choice == -1, stops)
    assert mask[~stops, choice[~stops]].all()
    for label in range(5):
        y = np.where(stops, label, choice)
        assert hy.agreement(logits, y, mask) == (~stops).mean()


def test_rollout_on_forced_line(line3):
    sc = scenario_for(line3, start=0, exit_=2)
    model = hy.HybridModel(seed=0)  # untrained; the path is forced anyway
    [path] = hy.rollout(model, line3, [sc])
    assert path.nodes == [0, 1, 2]
    assert path.reached


def test_rollout_respects_mask_and_adjacency():
    g = dg.synth_city(5, 5, seed=3)
    model = hy.HybridModel(seed=1)
    rng = np.random.default_rng(2)
    paths = hy.rollout(model, g, [dg.random_scenario(g, rng) for _ in range(5)])
    assert len(paths) == 5
    for path in paths:
        for u, v in zip(path.nodes, path.nodes[1:]):
            assert v in [nbr for nbr, _ in sorted_adjacency(g)[u]]


def test_rollout_argmax_scale_invariance():
    g = dg.synth_city(4, 4, seed=2)
    sc = dg.random_scenario(g, np.random.default_rng(1))
    model = hy.HybridModel(seed=3)
    [base] = hy.rollout(model, g, [sc])
    model.head_w *= 7.0  # positive rescaling of every logit
    model.head_b *= 7.0
    [again] = hy.rollout(model, g, [sc])
    assert base.nodes == again.nodes


@pytest.mark.parametrize("trained", [False, True])
def test_rollout_lockstep_matches_sequential(trained):
    g, ds = _tiny_dataset()
    if trained:  # classical-only, so that many scenarios arrive at different steps
        model, _ = hy.train(ds, hy.TrainConfig(epochs=30, batch_size=64, seed=0,
                                               classical_only=True))
    else:  # the quantum branch runs batched; most scenarios spend their budget
        model = hy.HybridModel(seed=1)
    rng = np.random.default_rng(4)
    scenarios = [dg.random_scenario(g, rng) for _ in range(12)]
    scenarios = [dataclasses.replace(sc, max_steps=2 + i) if i % 3 == 0 else sc
                 for i, sc in enumerate(scenarios)]
    lockstep = hy.rollout(model, g, scenarios)
    sequential = [hy.rollout(model, g, [sc])[0] for sc in scenarios]
    assert [(p.nodes, p.edge_costs, p.reached) for p in lockstep] == \
        [(p.nodes, p.edge_costs, p.reached) for p in sequential]
    # the batch mixes arrivals with default and short budgets that run out
    spent = {sc.max_steps for p, sc in zip(lockstep, scenarios) if not p.reached}
    assert any(p.reached for p in lockstep)
    assert 2 * g.n_nodes in spent and {5, 8, 11} <= spent
    assert all(len(p) - 1 == sc.max_steps for p, sc in zip(lockstep, scenarios)
               if not p.reached)
    assert len({len(p) for p in lockstep}) >= 4


def test_evaluate_runs_one_forward_per_world_step(monkeypatch):
    g = dg.synth_city(5, 5, seed=3)
    model = hy.HybridModel(seed=1)
    batches = []
    forward = hy.HybridModel.forward

    def counting_forward(self, features, *args, **kwargs):
        batches.append(len(features))
        return forward(self, features, *args, **kwargs)

    monkeypatch.setattr(hy.HybridModel, "forward", counting_forward)
    report = hy.evaluate(model, g, 8, seed=9)
    steps = [r.model_steps for r in report.records]
    assert len(batches) == max(steps) < sum(steps)
    assert sum(batches) == sum(steps)


def test_evaluate_computes_betweenness_once_per_graph(monkeypatch):
    calls = []
    betweenness = oc.edge_betweenness
    monkeypatch.setattr(oc, "edge_betweenness",
                        lambda graph: calls.append(graph) or betweenness(graph))
    g = dg.synth_city(4, 4, seed=2)
    model = hy.HybridModel(seed=1)
    hy.evaluate(model, g, 1, seed=3)
    hy.evaluate(model, g, 1, seed=4)
    assert calls == [g]
    assert np.array_equal(g.betweenness, betweenness(g))


def test_evaluate_report(tmp_path):
    g, ds = _tiny_dataset()
    model, _ = hy.train(ds, hy.TrainConfig(epochs=2, batch_size=64, seed=0))
    report = hy.evaluate(model, g, 6, seed=77)
    assert report.n_scenarios == 6
    assert 0.0 <= report.arrival_rate <= 1.0
    assert report.mean_accuracy <= 1.0
    assert 0.0 <= report.better_or_equal_rate <= 1.0
    assert len(report.records) == 6
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    report.save_json(jpath)
    report.save_csv(cpath)
    assert jpath.exists() and cpath.exists()
    assert cpath.read_text().startswith("scenario_id,")


def test_train_empty_dataset_rejected():
    with pytest.raises(ValueError):
        hy.train(ft.Dataset.from_rows([]), hy.TrainConfig(epochs=1))


def test_train_stops_on_non_finite_loss():
    ds = ft.generate_dataset(dg.synth_city(4, 4, seed=3), 6, seed=2)
    x = ds.feature_matrix().copy()
    x[:, 10] = 1e300  # a distance-to-exit value that overflows
    ds = dataclasses.replace(ds, features=x)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="epoch 1: val_loss is nan"):
            hy.train(ds, hy.TrainConfig(epochs=3, batch_size=256, seed=0,
                                        classical_only=True))
